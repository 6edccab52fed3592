import itertools
import math
import random
import time
import unittest.mock
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import kscheck.model
import kscheck.scenario
from kscheck import cabello18, exactlin, ksengine
from kscheck.ksengine import (
    KSScenario,
    ParityCertificate,
    ScenarioError,
    ScenarioTooLargeError,
    Valuation,
    build_scenario,
    count_valuations,
    enumerate_valuations,
    find_valuation,
    orthogonality_graph,
    parity_certificate,
    verify_func,
    without_context,
)
from kscheck.lattice import projector_of
from kscheck.model import NoncontextualModel, noncontextual_model
from kscheck.probability import DensityOperator, born
from kscheck.qlogic import Context, ContextError, Ray

from helpers import (
    brute_force_count,
    gram_schmidt,
    has_parity_subset,
    rand_mixed_state,
    reference_nonneg_solve,
    reference_components,
    reference_parity_subset,
    reference_peeled_rays,
    reference_rank,
    reference_valuations,
    single_context_scenario,
    subscenario,
    two_disjoint_contexts_scenario,
)


@pytest.fixture(scope="module")
def cabello():
    return cabello18()


def standard_basis(n):
    rays = [(f"e{i}", tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
    return build_scenario(rays, [[rid for rid, _ in rays]])


class TestBuildScenario:
    def test_cabello_merged(self, cabello):
        assert cabello.dim == 4
        assert len(cabello.rays) == 18
        assert len(cabello.contexts) == 9
        assert set(cabello.multiplicities().values()) == {2}

    def test_cabello_unmerged(self):
        s = cabello18(merge=False)
        assert len(s.rays) == 36
        assert set(s.multiplicities().values()) == {1}

    def test_single_context(self):
        s = single_context_scenario()
        assert len(s.rays) == 4 and len(s.contexts) == 1

    def test_merge_unifies_proportional_declarations(self):
        s = build_scenario(
            [
                ("a", (1, 0, 0, 0)),
                ("b", (0, 1, 0, 0)),
                ("c", (0, 0, 1, 0)),
                ("d", (0, 0, 0, 1)),
                ("d2", (0, 0, 0, -5)),
            ],
            [["a", "b", "c", "d"], ["a", "b", "c", "d2"]],
        )
        assert len(s.rays) == 4
        assert s.contexts[0] == s.contexts[1]
        assert s.multiplicities()["d"] == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            build_scenario([("a", (1, 0)), ("a", (0, 1))], [["a", "a"]])

    def test_undeclared_reference_rejected(self):
        with pytest.raises(ScenarioError, match="undeclared"):
            build_scenario([("a", (1, 0)), ("b", (0, 1))], [["a", "x"]])

    def test_unused_ray_rejected(self):
        with pytest.raises(ScenarioError, match="not used"):
            build_scenario(
                [("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1))],
                [["a", "b"]],
            )

    def test_invalid_context_rejected(self):
        with pytest.raises(ContextError):
            build_scenario([("a", (1, 0)), ("b", (1, 1))], [["a", "b"]])

    def test_empty_input_rejected(self):
        with pytest.raises(ScenarioError):
            build_scenario([], [])

    def test_error_messages_are_exact(self):
        a, b = ("a", (1, 0)), ("b", (0, 1))
        needs = "scenario needs at least one ray and one context"
        cases = [
            (([a, b, ("a", (1, 1))], [["a", "b"]]), ScenarioError, "duplicate ray id 'a'"),
            (([a, b], []), ScenarioError, needs),
            (([], [["a"]]), ScenarioError, needs),
            (([a, b], [["a", "x"]]), ScenarioError, "context references undeclared ray 'x'"),
            (
                ([a, b, ("d", (1, -1)), ("c", (1, 1))], [["a", "b"]]),
                ScenarioError,
                "rays not used in any context: c, d",
            ),
            (
                ([a, b, ("c", (1, 0, 0)), ("d", (0, 1, 0)), ("e", (0, 0, 1))], [["a", "b"], ["c", "d", "e"]]),
                ContextError,
                "ray c has dimension 3, expected 2; ray d has dimension 3, expected 2; "
                "ray e has dimension 3, expected 2",
            ),
            (
                ([a, b, ("c", (1, 0, 0))], [["a", "b"], ["a", "c"]]),
                ContextError,
                "ray c has dimension 3, expected 2",
            ),
        ]
        for args, kind, message in cases:
            with pytest.raises(ValueError) as err:
                build_scenario(*args)
            assert type(err.value) is kind and str(err.value) == message

    def test_the_first_error_wins(self):
        a, b, c, d = ("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1)), ("d", (1, -1))
        zero, e = ("z", (0, 0)), ("e", (1, 0, 0))
        cases = [
            # Rays are declared one at a time, in order.
            (([zero, a, a], [["a", "b"]]), ValueError, "the zero vector does not span a ray"),
            (([a, a, zero], [["a"]]), ScenarioError, "duplicate ray id 'a'"),
            (([a, a], []), ScenarioError, "duplicate ray id 'a'"),
            # Then the references, the first undeclared id in context order.
            (
                ([a, b, c], [["a", "c"], ["a", "y"], ["x"]]),
                ScenarioError,
                "context references undeclared ray 'y'",
            ),
            # Then the unused rays, before any context is validated.
            (([a, b, c, d], [["a", "c"]]), ScenarioError, "rays not used in any context: b, d"),
            # Then each context, in order.
            (
                ([a, b, c, e], [["a", "c"], ["b", "e"]]),
                ContextError,
                "rays a(1, 0) and c(1, 1) are not orthogonal (dot = 1)",
            ),
            (([a, b, c, e], [["b", "e"], ["a", "c"]]), ContextError, "ray e has dimension 3, expected 2"),
        ]
        for args, kind, message in cases:
            with pytest.raises(ValueError) as err:
                build_scenario(*args)
            assert type(err.value) is kind and str(err.value) == message

    def test_minted_ids_are_distinct(self):
        # Declared ids that already end in "@c<k>", and twelve contexts, so
        # that k reaches two digits.
        rays = [("a", (1, 0, 0)), ("a@c1", (0, 1, 0)), ("a@c1@c2", (0, 0, 1))]
        ids = [rid for rid, _ in rays]
        contexts = [list(p) for p in itertools.permutations(ids)] * 2
        s = build_scenario(rays, contexts, merge=False)
        minted = [r.id for r in s.rays]
        assert len(set(minted)) == len(minted) == sum(map(len, contexts))
        assert "a@c1@c12" in minted and "a@c1@c2@c1" in minted
        with pytest.raises(ContextError, match="coincide"):
            build_scenario(rays, [["a", "a", "a@c1"], ids], merge=False)

    def test_scenario_invariants_checked_directly(self, cabello):
        # one context references only 4 of the 18 rays
        with pytest.raises(ScenarioError, match="not used"):
            KSScenario(dim=4, rays=cabello.rays, contexts=cabello.contexts[:1])

    def test_every_invariant_checked_directly(self, cabello):
        rays, contexts = cabello.rays, cabello.contexts
        renamed = (Ray(rays[0].id, (0, 0, 1, 1)),) + rays[1:]
        a, b, c = Ray("a", (1, 0, 0)), Ray("b", (0, 1, 0)), Ray("c", (0, 0, 1))
        d, x, y = Ray("d", (1, 1, 0)), Ray("x", (1, 0)), Ray("y", (1, 1))
        cases = [
            ((4, rays + rays[:1], contexts), "unique"),
            ((4, (), contexts), "at least one"),
            ((4, rays, ()), "at least one"),
            ((3, rays, contexts), "dimension"),
            ((4, renamed, contexts), "not a scenario ray"),
            # A basis of another dimension than the scenario's.
            ((2, (x, Ray("z", (0, 1))), (Context((a, b, c)),)), "not a scenario ray"),
        ]
        for (dim, r, c), match in cases:
            with pytest.raises(ScenarioError, match=match):
                KSScenario(dim=dim, rays=r, contexts=c)
        # A context that is not an orthogonal basis cannot be built, so no
        # scenario can hold one.
        context_cases = [
            ((a, b), "context has 2 rays, needs 3"),
            ((x, y), "rays x(1, 0) and y(1, 1) are not orthogonal (dot = 1)"),
            (
                (a, b, d),
                "rays a(1, 0, 0) and d(1, 1, 0) are not orthogonal (dot = 1); "
                "rays b(0, 1, 0) and d(1, 1, 0) are not orthogonal (dot = 1)",
            ),
        ]
        for r, message in context_cases:
            with pytest.raises(ContextError) as err:
                Context(r)
            assert str(err.value) == message

    def test_dimension_must_be_an_int(self, cabello):
        # A float dimension would fail only later, in find and count.
        with pytest.raises(TypeError, match="scenario dimension must be an int, got float"):
            KSScenario(dim=4.0, rays=cabello.rays, contexts=cabello.contexts)

    def test_ray_ids_must_be_strs(self):
        # An int id would fail only later, in the graph and in serializing.
        with pytest.raises(TypeError, match="ray id must be a str, got int"):
            build_scenario([(1, (1, 0)), ("b", (0, 1))], [[1, "b"]])


class TestFindValuation:
    def test_cabello_has_none(self, cabello):
        assert find_valuation(cabello) is None

    def test_single_context_picks_first_ray(self):
        s = single_context_scenario()
        v = find_valuation(s)
        assert v is not None
        assert v.ones() == ("a",)

    def test_unmerged_cabello_is_colorable(self):
        s = cabello18(merge=False)
        v = find_valuation(s)
        assert v is not None
        assert verify_func(v, s).ok
        # deterministic tie-break: the first ray of every context gets the 1
        expected = tuple(sorted(c.ray_ids[0] for c in s.contexts))
        assert v.ones() == expected


class TestCountValuations:
    def test_cabello_is_zero(self, cabello):
        assert count_valuations(cabello) == 0

    def test_single_context(self):
        assert count_valuations(single_context_scenario()) == 4

    def test_two_disjoint_contexts(self):
        assert count_valuations(two_disjoint_contexts_scenario()) == 16

    def test_unmerged_count_is_product_of_context_sizes(self):
        assert count_valuations(cabello18(merge=False)) == 4**9

    def test_matches_brute_force_on_subscenarios(self, cabello):
        rng = random.Random(2024)
        for _ in range(12):
            k = rng.randint(1, 4)
            picks = sorted(rng.sample(range(9), k))
            s = subscenario(cabello, picks)
            if len(s.rays) > 18:
                continue
            expected = brute_force_count(s)
            assert count_valuations(s) == expected
            assert (find_valuation(s) is not None) == (expected > 0)
            assert sum(1 for _ in enumerate_valuations(s)) == expected

    def test_enumeration_agrees_with_count(self):
        s = two_disjoint_contexts_scenario()
        vals = list(enumerate_valuations(s))
        assert len(vals) == count_valuations(s) == 16
        assert len({tuple(sorted(v.items())) for v in vals}) == 16
        for v in vals:
            assert verify_func(v, s).ok

    def test_basis_of_31_is_counted(self):
        s = standard_basis(31)
        assert count_valuations(s) == 31
        assert find_valuation(s) is not None

    def test_node_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(ksengine, "SEARCH_NODE_BUDGET", 10)
        s = standard_basis(31)
        with pytest.raises(ScenarioTooLargeError, match="after visiting 10 nodes"):
            count_valuations(s)
        assert find_valuation(s) is not None  # find has no budget

    def test_node_budget_is_enforced_while_branching(self, cabello, monkeypatch):
        # With 5 nodes the refusal comes from a state whose count is a
        # product; test_node_budget_is_enforced_on_a_choice trips the other.
        s = without_context(cabello, 0)
        monkeypatch.setattr(ksengine, "SEARCH_NODE_BUDGET", 5)
        with pytest.raises(ScenarioTooLargeError, match="after visiting 5 nodes"):
            count_valuations(s)
        monkeypatch.setattr(ksengine, "SEARCH_NODE_BUDGET", 100)
        assert count_valuations(s) == 26

    def test_node_budget_is_enforced_on_a_choice(self, cabello, monkeypatch):
        # With 4 nodes the count gives up on a ray chosen in a context,
        # before any state's count is a product of its contexts' sizes.
        frames = []

        def spy(open_rays, masks):
            frame = make_frame(open_rays, masks)
            frames.append(list(frame))
            return frame

        make_frame = ksengine._frame
        monkeypatch.setattr(ksengine, "_frame", spy)
        monkeypatch.setattr(ksengine, "SEARCH_NODE_BUDGET", 4)
        with pytest.raises(ScenarioTooLargeError, match="after visiting 4 nodes"):
            count_valuations(without_context(cabello, 0))
        assert frames and all(choices for _, choices, _ in frames)

    def test_path_is_counted_from_cached_residuals(self, monkeypatch):
        # Contexts {s_k, t_k, s_k+1} in a path: a valuation is a 0/1 string
        # s_0..s_n with no two adjacent 1s, and there are Fibonacci(n + 3)
        # of them. Each residual is a suffix of the path, so with its count
        # cached the work is linear; without, it is one node per valuation.
        # s_2j = (1, j, j^2) and s_2j+1 = (j(j+1), -(2j+1), 1) are each
        # orthogonal to the next; t_k is the cross product s_k x s_k+1.
        n = 40
        s = []
        for k in range(n + 1):
            j = k // 2
            s.append((1, j, j * j) if k % 2 == 0 else (j * (j + 1), -k, 1))
        rays = [(f"s{k}", v) for k, v in enumerate(s)]
        for k in range(n):
            (a, b, c), (x, y, z) = s[k], s[k + 1]
            rays.append((f"t{k}", (b * z - c * y, c * x - a * z, a * y - b * x)))
        scenario = build_scenario(rays, [[f"s{k}", f"t{k}", f"s{k + 1}"] for k in range(n)])
        assert len(scenario.rays) == 2 * n + 1
        monkeypatch.setattr(ksengine, "SEARCH_NODE_BUDGET", 1000)
        fib = [0, 1]
        while len(fib) < n + 4:
            fib.append(fib[-1] + fib[-2])
        assert count_valuations(scenario) == fib[n + 3]

    def test_star_of_1500_contexts(self):
        # Every context holds the shared ray c. With c set to 1 all other
        # rays are 0; with c at 0 each context picks one of its two.
        n = 1500
        rays, contexts = [("c", (0, 0, 1))], []
        for k in range(1, n + 1):
            rays += [(f"a{k}", (1, k, 0)), (f"b{k}", (k, -1, 0))]
            contexts.append([f"a{k}", f"b{k}", "c"])
        s = build_scenario(rays, contexts)
        assert count_valuations(s) == 2**n + 1
        v = find_valuation(s)
        assert verify_func(v, s).ok
        assert v.ones() == tuple(sorted(f"a{k}" for k in range(1, n + 1)))


# Two dim-4 bases sharing no ray with cabello18 or with each other.
DISJOINT_BASES = (
    ((1, 2, 0, 0), (2, -1, 0, 0), (0, 0, 1, 3), (0, 0, 3, -1)),
    ((1, 0, 0, 2), (0, 1, 3, 0), (0, 3, -1, 0), (2, 0, 0, -1)),
)


# Four {0, +-1}^4 bases in a ring: each ray lies in two of them, so no
# context holds a ray of its own and none is peeled. No odd subset covers
# every ray evenly, and there are 8 valuations.
RING_BASES = (
    ((0, 0, 1, -1), (0, 0, 1, 1), (1, -1, 0, 0), (1, 1, 0, 0)),
    ((0, 0, 1, -1), (1, -1, 0, 0), (1, 1, -1, -1), (1, 1, 1, 1)),
    ((0, 0, 1, 1), (1, -1, -1, 1), (1, -1, 1, -1), (1, 1, 0, 0)),
    ((1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, 1, 1, 1)),
)


def ring_scenario():
    vectors = sorted({v for basis in RING_BASES for v in basis})
    ids = {v: f"q{i}" for i, v in enumerate(vectors)}
    return build_scenario(list(zip(ids.values(), vectors)), [[ids[v] for v in b] for b in RING_BASES])


def interleaved_scenario(cabello, picks):
    """Cabello contexts ``picks``, each followed by a disjoint basis, so the
    components alternate by context index."""
    referenced = {rid for k in picks for rid in cabello.contexts[k].ray_ids}
    rays = [(r.id, r.ints) for r in cabello.rays if r.id in referenced]
    contexts = []
    for k, basis in zip(picks, DISJOINT_BASES):
        ids = [f"x{k}_{i}" for i in range(4)]
        rays += zip(ids, basis)
        contexts += [list(cabello.contexts[k].ray_ids), ids]
    return build_scenario(rays, contexts)


class TestSearchOrder:
    """Find, enumerate and count against a brute force that knows only
    the order: contexts by index, rays in context order."""

    def check(self, s):
        expected = reference_valuations(s)
        assert [v.ones() for v in enumerate_valuations(s)] == expected
        first = find_valuation(s)
        assert (first.ones() if first else None) == (expected[0] if expected else None)
        assert count_valuations(s) == len(expected)

    def test_cabello_subscenarios(self, cabello):
        rng = random.Random(6)
        for _ in range(10):
            self.check(subscenario(cabello, rng.sample(range(9), rng.randint(1, 4))))

    def test_interleaved_components(self, cabello):
        rng = random.Random(8)
        for _ in range(3):
            s = interleaved_scenario(cabello, rng.sample(range(9), 2))
            assert len(s.rays) <= 16
            self.check(s)

    def test_chain_of_1500_contexts(self):
        n = 1500
        rays, contexts = [], []
        for k in range(1, n + 1):
            rays += [(f"a{k}", (1, k)), (f"b{k}", (k, -1))]
            contexts.append([f"a{k}", f"b{k}"])
        s = build_scenario(rays, contexts)
        assert find_valuation(s).ones() == tuple(sorted(f"a{k}" for k in range(1, n + 1)))
        assert count_valuations(s) == 2**n


def cayley(skew):
    """The rational orthogonal matrix (I - A)(I + A)^-1 of a skew-symmetric
    integer matrix A, by Gauss-Jordan over Fractions. I + A is invertible,
    as A has no real eigenvalue other than 0."""
    n = len(skew)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    # Solve (I + A)^T X = (I - A)^T, so that X^T = (I - A)(I + A)^-1.
    rows = [
        [eye[i][j] + skew[j][i] for j in range(n)] + [eye[i][j] - skew[j][i] for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [[rows[j][n + i] for j in range(n)] for i in range(n)]


def grid4_bases():
    """Every orthogonal basis of the {0, +-1}^4 grid, as sorted vectors."""
    grid = sorted({Ray("", v).ints for v in itertools.product((-1, 0, 1), repeat=4) if any(v)})
    bases = []

    def extend(basis, rest):
        if len(basis) == 4:
            bases.append(tuple(basis))
        for i, v in enumerate(rest):
            extend(basis + [v], [w for w in rest[i + 1 :] if sum(x * y for x, y in zip(v, w)) == 0])

    extend([], grid)
    return bases


GRID4_BASES = grid4_bases()


def bases_scenario(bases):
    """Scenario of ``bases``, given as vectors, in their order, with ray
    ``r<i>`` the ``i``-th of their vectors in sorted order."""
    vectors = sorted({v for b in bases for v in b})
    ids = {v: f"r{i}" for i, v in enumerate(vectors)}
    return build_scenario(list(zip(ids.values(), vectors)), [[ids[v] for v in b] for b in bases])


@st.composite
def rotated_copies(draw, core=False):
    """(rays, contexts, copy of each context, copy ray counts, whether the
    first copy is all of Cabello's set): 2 to 6 copies of Cabello or
    {0, +-1}^4 context subsets, each turned by its own Cayley matrix, with
    the contexts of all copies shuffled together, the rays of each context
    shuffled, and the declarations shuffled. With ``core``, the first copy
    is a subset of 5 to 8 of Cabello's contexts, which has valuations yet
    no model for many states, and one more copy has one context, so the
    whole LP stays small enough for the Fraction simplex."""
    cab = cabello18()
    cab_rays = {r.id: r.ints for r in cab.rays}
    cab_contexts = [c.ray_ids for c in cab.contexts]
    dead = not core and draw(st.sampled_from((False, False, True)))
    # A Cayley matrix per copy, from the entries above A's diagonal; equal
    # matrices would turn equal subsets alike.
    n = 2 if core else draw(st.integers(2, 6))
    most = 1 if core else 3
    uppers = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 6), min_size=n, max_size=n, unique=True))
    rays, contexts, owner, sizes = {}, [], [], []
    for copy, upper in enumerate(uppers):
        if dead and copy == 0:
            picked = cab_contexts
        elif core and copy == 0:
            picked = [cab_contexts[k] for k in sorted(draw(st.sets(st.integers(0, 8), min_size=5, max_size=8)))]
        elif draw(st.booleans()):
            picked = [cab_contexts[k] for k in draw(st.sets(st.integers(0, 8), min_size=1, max_size=most))]
        else:
            indices = st.lists(st.integers(0, len(GRID4_BASES) - 1), min_size=1, max_size=most, unique=True)
            picked = [[f"g{v}" for v in GRID4_BASES[k]] for k in draw(indices)]
        skew = [[0] * 4 for _ in range(4)]
        for (i, j), x in zip(itertools.combinations(range(4), 2), upper):
            skew[i][j], skew[j][i] = x, -x
        q = cayley(skew)
        used = sorted({rid for c in picked for rid in c})
        for rid in used:
            v = cab_rays[rid] if rid in cab_rays else tuple(map(int, rid[2:-1].split(",")))
            rays[f"k{copy}{rid}"] = tuple(sum(a * x for a, x in zip(row, v)) for row in q)
        contexts += [[f"k{copy}{rid}" for rid in c] for c in picked]
        owner += [copy] * len(picked)
        sizes.append(len(used))
    order = draw(st.permutations(range(len(contexts))))
    contexts = [draw(st.permutations(contexts[k])) for k in order]
    owner = [owner[k] for k in order]
    declared = draw(st.permutations(sorted(rays)))
    return [(rid, rays[rid]) for rid in declared], contexts, owner, sizes, dead


def choice_key(s, ones):
    """Per context in input order, the position of its ray set to 1: the
    order find and enumerate follow."""
    return tuple(next(i for i, rid in enumerate(c.ray_ids) if rid in ones) for c in s.contexts)


class TestFindByComponent:
    """Find and count work one component at a time; each answer must be
    the whole scenario's, in the whole scenario's order."""

    @given(rotated_copies())
    @settings(max_examples=80, deadline=None)
    def test_copies_against_the_brute_force(self, drawn):
        rays, contexts, owner, sizes, dead = drawn
        s = build_scenario(rays, contexts)
        # Turned copies keep apart unless two rays happen to coincide.
        assume(len(s.rays) == sum(sizes))
        if dead:
            assert find_valuation(s) is None
            assert count_valuations(s) == 0
            assert list(enumerate_valuations(s)) == []
            # Without the parity refutation the copy's own search dies.
            fresh = build_scenario(rays, contexts)
            with unittest.mock.patch.object(KSScenario, "_parity_subset", None):
                assert find_valuation(fresh) is None
                assert count_valuations(fresh) == 0
            return
        per_copy = [
            reference_valuations(subscenario(s, [k for k, c in enumerate(owner) if c == copy]))
            for copy in range(len(sizes))
        ]
        first = find_valuation(s)
        assert count_valuations(s) == math.prod(map(len, per_copy))
        if not all(per_copy):
            assert first is None and list(enumerate_valuations(s)) == []
            return
        assert first.ones() == tuple(sorted(rid for ref in per_copy for rid in ref[0]))
        lone, records = s._components
        assert len(lone) + len(records) >= len(sizes)
        if math.prod(map(len, per_copy)) <= 5000:
            joined = [set().union(*parts) for parts in itertools.product(*per_copy)]
            expected = [tuple(sorted(v)) for v in sorted(joined, key=lambda v: choice_key(s, v))]
            assert [v.ones() for v in enumerate_valuations(s)] == expected
        else:
            keys = [choice_key(s, set(v.ones())) for v in itertools.islice(enumerate_valuations(s), 200)]
            assert keys == sorted(set(keys)) and keys[0] == choice_key(s, set(first.ones()))

    def test_a_chain_builds_no_search_tables(self, monkeypatch):
        built = []

        def spy(s, contexts):
            built.append(s)
            return tables(s, contexts)

        tables = ksengine._search_tables
        # KSScenario._components reads the name in scenario, and
        # enumerate_valuations in ksengine: both are watched.
        for module in (kscheck.scenario, ksengine):
            monkeypatch.setattr(module, "_search_tables", spy)
        n = 300
        rays, contexts = [], []
        for k in range(1, n + 1):
            rays += [(f"a{k}", (1, k)), (f"b{k}", (k, -1))]
            contexts.append([f"b{k}", f"a{k}"])
        s = build_scenario(rays, contexts)
        assert find_valuation(s).ones() == tuple(sorted(f"b{k}" for k in range(1, n + 1)))
        assert count_valuations(s) == 2**n
        assert built == []
        assert len(list(itertools.islice(enumerate_valuations(s), 3))) == 3
        assert built == [s]


def turned_copies(scenario, k):
    """``k`` copies of ``scenario``, copy ``c`` turned by the Cayley matrix
    of the skew-symmetric matrix with ``c + 1`` above its diagonal."""
    rays, contexts = [], []
    for copy in range(k):
        skew = [[0] * 4 for _ in range(4)]
        for i, j in itertools.combinations(range(4), 2):
            skew[i][j], skew[j][i] = copy + 1, -(copy + 1)
        q = cayley(skew)
        rays += [(f"k{copy}{r.id}", tuple(sum(a * x for a, x in zip(row, r.ints)) for row in q)) for r in scenario.rays]
        contexts += [[f"k{copy}{rid}" for rid in c.ray_ids] for c in scenario.contexts]
    return build_scenario(rays, contexts)


def component_lps(s, dropped):
    """Per component of several contexts, in order, the LP of the rows of
    its rays not in ``dropped``, in ray order, over its own valuations,
    then the ones row."""
    contexts = [c.ray_ids for c in s.contexts]
    lps = []
    for component in reference_components(contexts):
        if len(component) > 1:
            own = {rid for k in component for rid in contexts[k]}
            part = list(enumerate_valuations(subscenario(s, component)))
            rows = [[v[r.id] for v in part] for r in s.rays if r.id in own and r.id not in dropped]
            lps.append(rows + [[1] * len(part)])
    return lps


class TestModelByComponent:
    """The model solves one component at a time and joins the parts; each
    verdict must be the whole LP's, and each model a model of the whole."""

    @given(st.booleans().flatmap(lambda core: rotated_copies(core=core)), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_copies_against_the_whole_lp(self, drawn, seed, aligned):
        """A FEASIBLE model is a solution of the whole LP, over every
        valuation and every ray, so the Fraction simplex has one too; on
        INFEASIBLE it must find none. The state is mixed, or pure along
        one of the rays."""
        rays, contexts, owner, sizes, dead = drawn
        s = build_scenario(rays, contexts)
        assume(len(s.rays) == sum(sizes) and count_valuations(s) <= 2000)
        valuations = list(enumerate_valuations(s))
        rng = random.Random(seed)
        rho = DensityOperator.pure(rng.choice(s.rays).ints) if aligned else rand_mixed_state(rng, 4, max_parts=3)
        probs = [born(rho, projector_of(r)) for r in s.rays]
        model = noncontextual_model(s, rho)
        if model is None:
            if valuations:
                rows = [[v[r.id] for v in valuations] for r in s.rays] + [[1] * len(valuations)]
                assert reference_nonneg_solve(rows, probs + [Fraction(1)]) is None
            return
        assert all(w > 0 for w in model.weights.values()) and sum(model.weights.values()) == 1
        for r, p in zip(s.rays, probs):
            assert model.ray_probability(r.id) == p
        components = reference_components([c.ray_ids for c in s.contexts])
        parts = [len(noncontextual_model(subscenario(s, comp), rho).weights) for comp in components]
        assert len(model.weights) <= sum(parts) - (len(parts) - 1)
        index = {v.ones(): i for i, v in enumerate(valuations)}
        keys = sorted(model.weights)
        positions = [index[model.valuations[key].ones()] for key in keys]
        assert positions == sorted(set(positions))
        if len(components) == 1:
            assert keys == positions
        else:
            assert keys == list(range(len(keys)))

    def test_one_part_without_a_model(self, cabello):
        """Five Cabello contexts, which have no model for this pure state,
        and a basis sharing no ray with them: INFEASIBLE, as the whole LP
        of 44 * 4 columns says. The maximally mixed state has a model."""
        part = subscenario(cabello, [0, 1, 3, 4, 5])
        rays = [(r.id, r.ints) for r in part.rays] + [(f"x{i}", v) for i, v in enumerate(DISJOINT_BASES[0])]
        s = build_scenario(rays, [["x0", "x1", "x2", "x3"]] + [list(c.ray_ids) for c in part.contexts])
        lone, records = s._components
        assert lone == (0,) and len(records) == 1
        valuations = list(enumerate_valuations(s))
        assert len(valuations) == 44 * 4
        rows = [[v[r.id] for v in valuations] for r in s.rays] + [[1] * len(valuations)]
        for rho, feasible in ((DensityOperator.pure((1, 2, 3, 4)), False), (DensityOperator.maximally_mixed(4), True)):
            b = [born(rho, projector_of(r)) for r in s.rays] + [Fraction(1)]
            assert (reference_nonneg_solve(rows, b) is not None) == feasible
            assert (noncontextual_model(s, rho) is not None) == feasible

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_turned_copies_of_a_deletion(self, cabello, k):
        """At the parent of the split, 3 copies took 748 s and 4 were
        refused as over MODEL_VALUATION_LIMIT."""
        s = turned_copies(without_context(cabello, 0), k)
        assert len(s.rays) == 18 * k and s._components[0] == () and len(s._components[1]) == k
        rho = DensityOperator.maximally_mixed(4)
        start = time.perf_counter()
        model = noncontextual_model(s, rho)
        assert time.perf_counter() - start < 1
        assert model is not None
        assert all(model.ray_probability(r.id) == Fraction(1, 4) for r in s.rays)
        assert all(w > 0 for w in model.weights.values())
        # Every copy has the same LP, so the same weights: the coupling cuts
        # each at the same points and joins the copies' i-th valuations.
        part = len(noncontextual_model(without_context(cabello, 0), rho).weights)
        assert len(model.weights) == part
        # A pure state that some copies have no model for: INFEASIBLE, and
        # the Fraction simplex agrees on each copy's own LP.
        pure = DensityOperator.pure((1, 2, 3, 4))
        assert noncontextual_model(s, pure) is None
        verdicts = set()
        for copy in range(k):
            own = subscenario(s, range(8 * copy, 8 * copy + 8))
            valuations = list(enumerate_valuations(own))
            rows = [[v[r.id] for v in valuations] for r in own.rays] + [[1] * len(valuations)]
            b = [born(pure, projector_of(r)) for r in own.rays] + [Fraction(1)]
            feasible = reference_nonneg_solve(rows, b) is not None
            assert (noncontextual_model(own, pure) is not None) == feasible
            verdicts.add(feasible)
        assert verdicts == {True, False}

    def test_an_infeasible_side_against_the_whole_lp(self):
        """Two copies of the KCBS pentagram, each pair of its consecutive
        rays completed to a basis by their cross product, the second copy
        turned: 20 rays, 10 contexts and 2 components of 11 valuations. A
        pure state has no model on the first copy only, another on the
        second only, and the maximally mixed state has one. Each verdict
        is the whole 121-column LP's."""
        pentagram = [(0, 1, -2), (1, -2, -1), (1, 0, 1), (1, 0, -1), (1, 2, 1)]
        q = cayley([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
        rays, contexts = [], []
        for copy, turn in enumerate(([[int(i == j) for j in range(3)] for i in range(3)], q)):
            for k, (a, b) in enumerate(zip(pentagram, pentagram[1:] + pentagram[:1])):
                c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
                rays += [
                    (f"{name}{copy}{k}", tuple(sum(x * y for x, y in zip(row, v)) for row in turn))
                    for name, v in (("p", a), ("c", c))
                ]
                contexts.append([f"p{copy}{k}", f"p{copy}{(k + 1) % 5}", f"c{copy}{k}"])
        s = build_scenario(rays, contexts)
        lone, records = s._components
        assert (len(s.rays), lone, len(records), parity_certificate(s)) == (20, (), 2, None)
        valuations = list(enumerate_valuations(s))
        assert len(valuations) == 11 * 11
        rows = [[v[r.id] for v in valuations] for r in s.rays] + [[1] * len(valuations)]
        copies = [subscenario(s, range(5)), subscenario(s, range(5, 10))]
        for rho, infeasible in (
            (DensityOperator.pure((0, 1, 3)), 0),
            (DensityOperator.pure((1, 1, 1)), 1),
            (DensityOperator.maximally_mixed(3), None),
        ):
            probs = [born(rho, projector_of(r)) for r in s.rays]
            model = noncontextual_model(s, rho)
            assert [noncontextual_model(c, rho) is None for c in copies] == [k == infeasible for k in range(2)]
            assert (model is None) == (infeasible is not None)
            assert (reference_nonneg_solve(rows, probs + [Fraction(1)]) is None) == (model is None)
            if model is not None:
                assert len(model.weights) <= 11 + 11 - 1
                assert [model.ray_probability(r.id) for r in s.rays] == probs

    def test_masks_are_as_narrow_as_their_component(self, cabello):
        """On 30 turned copies of a deletion, each component's record has
        tables that number its own rays from bit 0 in ray order: after
        count, find and a model, every mask of its tables and every column
        the model stores in the record lies below 2 ** (its ray count)."""
        s = turned_copies(without_context(cabello, 0), 30)
        assert count_valuations(s) == 26**30
        assert find_valuation(s) is not None
        assert noncontextual_model(s, DensityOperator.maximally_mixed(4)) is not None
        components = reference_components([c.ray_ids for c in s.contexts])
        lone, records = s._components
        assert lone == () and len(records) == len(components) == 30
        for component, (tables, store) in zip(components, records):
            own = sorted({i for k in component for i in s._context_rays[k]})
            assert list(tables.rays) == own
            kept, columns = store
            top = 2 ** len(own)
            assert all(0 < m < top for m in [*tables.context_masks, *tables.forced, *columns])
            assert all(0 <= i < len(own) for i in kept)


def lone_basis(k):
    """A basis of four rays, each holding k, which no other scenario of
    these tests shares."""
    return ((1, 0, k, 0), (0, 1, 0, k), (k, 0, -1, 0), (0, k, 0, -1))


@st.composite
def coupling_parts(draw):
    """2 to 4 parts for the coupling: each a list of (ray indices, weight)
    pairs with positive Fraction weights summing to 1, the indices of
    different parts disjoint."""
    parts = []
    for p in range(draw(st.integers(2, 4))):
        sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
        ones = st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True)
        parts.append([([10 * p + i for i in draw(ones)], Fraction(n, sum(sizes))) for n in sizes])
    return parts


class TestComponents:
    """The scenario's cached partition: its lone contexts, then one record
    per component of several contexts, against the reference."""

    def check(self, s):
        contexts = [c.ray_ids for c in s.contexts]
        reference = reference_components(contexts)
        several = [c for c in reference if len(c) > 1]
        lone, records = s._components
        assert list(lone) == [c[0] for c in reference if len(c) == 1]
        assert len(records) == len(several)
        # reference_components orders the components by their first context.
        for component, (tables, store) in zip(several, records):
            assert list(tables.rays) == sorted({i for k in component for i in s._context_rays[k]})
            rays = [tuple([tables.rays[b] for b in own]) for own in tables.context_rays]
            assert rays == [s._context_rays[k] for k in component]
            assert store == []
        return lone, records

    def test_a_chain(self):
        rays, contexts = [], []
        for k in range(1, 31):
            rays += [(f"a{k}", (1, k)), (f"b{k}", (k, -1))]
            contexts.append([f"b{k}", f"a{k}"])
        assert self.check(build_scenario(rays, contexts)) == (tuple(range(30)), ())

    def test_cabello(self, cabello):
        lone, records = self.check(cabello)
        assert lone == () and len(records) == 1 and len(records[0].tables.rays) == 18

    def test_lone_bases_between_turned_copies(self, cabello):
        """Three turned copies of a deletion, a lone basis after each of
        the first two."""
        copies = turned_copies(without_context(cabello, 0), 3)
        rays = [(r.id, r.ints) for r in copies.rays]
        contexts = []
        for copy in range(3):
            contexts += [list(c.ray_ids) for c in copies.contexts[8 * copy : 8 * copy + 8]]
            if copy < 2:
                ids = [f"x{copy}_{i}" for i in range(4)]
                rays += zip(ids, lone_basis(copy + 2))
                contexts.append(ids)
        lone, records = self.check(build_scenario(rays, contexts))
        assert lone == (8, 17) and len(records) == 3

    @given(rotated_copies())
    @settings(max_examples=50, deadline=None)
    def test_rotated_copies(self, drawn):
        rays, contexts, _, _, _ = drawn
        self.check(build_scenario(rays, contexts))

    @given(coupling_parts(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_the_coupling_ignores_the_order_of_its_parts(self, parts, rng):
        """The lone contexts' parts join after the records' parts, so the
        coupling must not depend on where a part comes."""
        shuffled = rng.sample(parts, len(parts))

        def joined(parts):
            return [(sorted(ones), w) for ones, w in kscheck.model._coupling(parts)]

        assert joined(shuffled) == joined(parts)

    def test_a_record_comes_before_the_lone_contexts(self, cabello, monkeypatch):
        """A lone basis first in input order, then a component. Under a
        budget below the basis's 4 rays, which the component's own search
        is spared, count and the model settle the component first: one
        with no valuation gives 0 and None, and only one with valuations
        and a model lets the lone basis refuse. A limit below 4 gives
        None on the component with no valuation too."""
        count, search = ksengine._count, ksengine._search
        monkeypatch.setattr(ksengine, "_count", lambda tables, budget: count(tables, 1000))
        monkeypatch.setattr(ksengine, "_search", lambda tables, budget: search(tables, 1000))
        rho = DensityOperator.maximally_mixed(4)

        def lone_first(part):
            rays = [(f"x{i}", v) for i, v in enumerate(lone_basis(2))] + [(r.id, r.ints) for r in part.rays]
            s = build_scenario(rays, [["x0", "x1", "x2", "x3"]] + [list(c.ray_ids) for c in part.contexts])
            assert s._components[0] == (0,) and len(s._components[1]) == 1
            return s

        live = lone_first(without_context(cabello, 0))
        assert count_valuations(live) == 4 * 26 and noncontextual_model(live, rho) is not None
        with unittest.mock.patch.object(KSScenario, "_parity_subset", None):
            monkeypatch.setattr(kscheck.model, "MODEL_VALUATION_LIMIT", 3)
            assert noncontextual_model(lone_first(cabello), rho) is None
            monkeypatch.setattr(kscheck.model, "MODEL_VALUATION_LIMIT", 30)
            monkeypatch.setattr(ksengine, "SEARCH_NODE_BUDGET", 3)
            dead = lone_first(cabello)
            assert count_valuations(dead) == 0
            assert noncontextual_model(dead, rho) is None
        for ask in (count_valuations, lambda s: noncontextual_model(s, rho)):
            with pytest.raises(ScenarioTooLargeError, match="after visiting 3 nodes"):
                ask(live)


class TestWithoutContext:
    def test_each_deletion_restores_colorability(self, cabello):
        # Pinned by the standalone brute-force oracle: deleting any one of
        # the nine contexts leaves exactly 26 valuations.
        for k in range(9):
            s = without_context(cabello, k)
            assert len(s.contexts) == 8
            assert len(s.rays) == 18
            assert count_valuations(s) == 26

    def test_one_deletion_cross_checked_against_oracle(self, cabello):
        s = without_context(cabello, 0)
        assert brute_force_count(s) == 26

    def test_out_of_range(self, cabello):
        with pytest.raises(IndexError):
            without_context(cabello, 9)

    def test_the_only_context_cannot_be_deleted(self):
        s = build_scenario([("a", (1, 0)), ("b", (0, 1))], [["a", "b"]])
        with pytest.raises(ScenarioError) as excinfo:
            without_context(s, 0)
        assert str(excinfo.value) == "cannot delete the only context of a scenario"

    def test_equals_the_checked_constructor(self, cabello):
        # The unmerged set drops the four rays of the deleted context.
        for s in (cabello, cabello18(merge=False)):
            for k in range(9):
                contexts = s.contexts[:k] + s.contexts[k + 1:]
                kept = {rid for c in contexts for rid in c.ray_ids}
                rays = tuple(r for r in s.rays if r.id in kept)
                assert without_context(s, k) == KSScenario(dim=4, rays=rays, contexts=contexts)


class TestParityCertificate:
    def test_cabello_certificate(self, cabello):
        cert = parity_certificate(cabello)
        assert cert is not None
        assert cert.context_count == 9
        assert set(cert.ray_multiplicities.values()) == {2}
        assert len(cert.ray_multiplicities) == 18

    def test_single_context_has_none(self):
        assert parity_certificate(single_context_scenario()) is None

    def test_constructor_checks(self):
        cert = ParityCertificate(ray_multiplicities={"a": 2}, contexts=[0, 3, 4])
        assert cert.contexts == (0, 3, 4) and cert.context_count == 3
        cases = [
            (({"a": 3}, (0, 1, 2)), "expected even"),
            (({"a": 2}, (0, 1)), "not odd"),
            (({"a": 2}, (1, 0, 2)), "increasing"),
            (({"a": 2}, (0, 0, 1)), "increasing"),
            (({"a": 2}, (-1, 0, 1)), "nonnegative"),
        ]
        for (mults, contexts), match in cases:
            with pytest.raises(ValueError, match=match):
                ParityCertificate(ray_multiplicities=mults, contexts=contexts)

    def test_multiplicities_and_indices_must_be_ints(self):
        cases = [
            (({"a": 2.0}, (0,)), "multiplicity of a is 2.0, expected an int"),
            (({"a": Fraction(2)}, (0,)), "multiplicity of a is Fraction(2, 1), expected an int"),
            (({"a": 2}, (0.0,)), "context indices must be ints"),
            # Types are checked before any comparison with a number, which
            # would raise an error naming no field.
            (({"a": "2"}, (0,)), "multiplicity of a is '2', expected an int"),
            (({"a": 2}, ("0",)), "context indices must be ints"),
        ]
        for (mults, contexts), match in cases:
            with pytest.raises(TypeError) as err:
                ParityCertificate(ray_multiplicities=mults, contexts=contexts)
            assert str(err.value).startswith(match)

    def test_deleting_a_context_kills_it(self, cabello):
        for k in range(9):
            assert parity_certificate(without_context(cabello, k)) is None

    def test_certificate_implies_no_valuation(self, cabello):
        rng = random.Random(99)
        checked = 0
        for _ in range(40):
            k = rng.randint(1, 5)
            s = subscenario(cabello, sorted(rng.sample(range(9), k)))
            cert = parity_certificate(s)
            if cert is not None:
                assert count_valuations(s) == 0
                checked += 1
        cert = parity_certificate(cabello)
        assert cert is not None and count_valuations(cabello) == 0

    def test_subset_is_the_reference(self, cabello):
        """The subset is the first odd dependency in input order, as
        ``reference_parity_subset`` finds it, None against None included."""

        def shuffled(s, rng):
            contexts = [rng.sample(c.ray_ids, len(c.ray_ids)) for c in s.contexts]
            return build_scenario([(r.id, r.ints) for r in s.rays], rng.sample(contexts, len(contexts)))

        rng = random.Random(32)
        scenarios = []
        for _ in range(100):
            sub = shuffled(subscenario(cabello, rng.sample(range(9), rng.randint(1, 9))), rng)
            scenarios += [sub, with_disjoint_basis(sub)]
        scenarios += [interleaved_scenario(cabello, rng.sample(range(9), 2)) for _ in range(30)]
        scenarios += [bases_scenario(rng.sample(GRID4_BASES, rng.randint(3, 32))) for _ in range(100)]
        found = 0
        for s in scenarios:
            cert = parity_certificate(s)
            expected = reference_parity_subset([c.ray_ids for c in s.contexts])
            assert (cert and cert.contexts) == expected
            found += expected is not None
        assert 40 < found < len(scenarios) - 40
        whole = parity_certificate(bases_scenario(GRID4_BASES))
        assert whole.contexts == (1, 3, 9, 10, 11, 15, 16, 20, 21)


def with_disjoint_basis(cabello):
    """cabello18 plus one basis sharing no ray with it: the whole set has
    rays of multiplicity 1 and an even number of contexts."""
    rays = [(r.id, r.ints) for r in cabello.rays]
    ids = [f"x{i}" for i in range(4)]
    rays += zip(ids, DISJOINT_BASES[0])
    return build_scenario(rays, [list(c.ray_ids) for c in cabello.contexts] + [ids])


def grid_scenarios(dim, rng, tries, max_rays=14):
    """Scenarios of 2 to 5 random orthogonal bases of the {0, +-1}^dim
    grid, from ``tries`` draws, keeping those of at most ``max_rays``
    rays."""
    grid = sorted({Ray("", v).ints for v in itertools.product((-1, 0, 1), repeat=dim) if any(v)})

    def random_basis():
        while True:
            basis = []
            for v in rng.sample(grid, len(grid)):
                if all(sum(x * y for x, y in zip(v, b)) == 0 for b in basis):
                    basis.append(v)
            if len(basis) == dim:
                return tuple(sorted(basis))

    out = []
    for _ in range(tries):
        bases = sorted({random_basis() for _ in range(rng.randint(2, 5))})
        if len({v for b in bases for v in b}) <= max_rays:
            out.append(bases_scenario(bases))
    return out


def connected_grid_scenarios(rng, tries):
    """Scenarios of 3 to 6 orthogonal bases of the {0, +-1}^4 grid, from
    ``tries`` draws, each basis after the first sharing a ray with one
    before it, so that each scenario is one component."""
    out = []
    for _ in range(tries):
        bases = [rng.choice(GRID4_BASES)]
        for _ in range(rng.randint(2, 5)):
            seen = {v for b in bases for v in b}
            bases.append(rng.choice([b for b in GRID4_BASES if b not in bases and seen & set(b)]))
        out.append(bases_scenario(bases))
    return out


class TestStep:
    """_step against its definition, on random live states, as id sets."""

    @staticmethod
    def live_state(s, rng):
        """Open ray ids of a random live state: rays set to 1 share no
        context, a ray is open when no context holding it has a 1, and
        every context without a 1 has an open ray."""
        contexts = [set(c.ray_ids) for c in s.contexts]
        every = [r.id for r in s.rays]
        while True:
            ones = set()
            for rid in rng.sample(every, len(every)):
                if rng.random() < 0.3 and not any(rid in c and c & ones for c in contexts):
                    ones.add(rid)
            open_ids = set(every) - {rid for c in contexts if c & ones for rid in c}
            if all(c & ones or c & open_ids for c in contexts):
                return open_ids

    def test_matches_the_definition(self, cabello):
        rng = random.Random(12)
        scenarios = [subscenario(cabello, rng.sample(range(9), rng.randint(2, 9))) for _ in range(8)]
        scenarios += [interleaved_scenario(cabello, rng.sample(range(9), 2)) for _ in range(3)]
        scenarios += grid_scenarios(3, rng, 8)
        outcomes = Counter()
        for s in scenarios:
            tables = ksengine._search_tables(s, range(len(s.contexts)))
            index = {r.id: i for i, r in enumerate(s.rays)}
            contexts = [set(c.ray_ids) for c in s.contexts]

            def mask(ids):
                return sum(1 << index[rid] for rid in ids)

            for _ in range(6):
                open_ids = self.live_state(s, rng)
                for r in sorted(open_ids):
                    child = open_ids - {rid for c in contexts if r in c for rid in c}
                    dead = any(r not in c and c & open_ids and not c & child for c in contexts)
                    got = ksengine._step(mask(open_ids), index[r], tables)
                    assert got == (None if dead else mask(child))
                    outcomes[dead] += 1
        assert outcomes[True] > 20 and outcomes[False] > 100


class TestParityRefutation:
    """Find, enumerate, count and the model answer at once when an odd set
    of contexts covers every ray an even number of times."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return search(*args)

        search = ksengine._search
        monkeypatch.setattr(ksengine, "_search", spy)
        return calls

    def test_refuted_without_search(self, cabello, searches):
        extended = with_disjoint_basis(cabello)
        cert = parity_certificate(extended)
        assert cert.contexts == tuple(range(9))
        assert cert.ray_multiplicities == cabello.multiplicities()
        for s in (cabello, extended):
            assert find_valuation(s) is None
            assert count_valuations(s) == 0
            assert list(enumerate_valuations(s)) == []
            assert noncontextual_model(s, DensityOperator.maximally_mixed(4)) is None
        assert searches == []

    def test_subset_is_odd_and_covers_evenly(self, cabello):
        s = with_disjoint_basis(cabello)
        subset = s._parity_subset
        chosen = [c for k, c in enumerate(s.contexts) if subset >> k & 1]
        assert subset < 1 << len(s.contexts) and len(chosen) % 2 == 1
        cover = Counter(rid for c in chosen for rid in c.ray_ids)
        assert all(n % 2 == 0 for n in cover.values())

    def test_fires_exactly_where_a_subset_exists(self, cabello):
        rng = random.Random(10)
        scenarios = [interleaved_scenario(cabello, rng.sample(range(9), 2)) for _ in range(6)]
        for _ in range(30):
            scenarios.append(subscenario(cabello, rng.sample(range(9), rng.randint(1, 9))))
        refuted = 0
        for s in scenarios:
            cert = parity_certificate(s)
            assert (cert is not None) == has_parity_subset(s)
            if cert is not None:
                refuted += 1
                assert brute_force_count(s) == 0
                assert len(cert.contexts) % 2 == 1
                assert cert.contexts == tuple(sorted(set(cert.contexts)))
                chosen = [s.contexts[k] for k in cert.contexts]
                assert Counter(rid for c in chosen for rid in c.ray_ids) == cert.ray_multiplicities
        assert 0 < refuted < len(scenarios)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_odd_dimension_has_none(self, dim):
        shared = 0
        for s in grid_scenarios(dim, random.Random(dim), 12):
            shared += max(s.multiplicities().values()) > 1
            assert s._parity_subset is None
            assert not has_parity_subset(s)
            assert count_valuations(s) == brute_force_count(s)
        assert shared >= 3

    def test_scenarios_without_shared_rays_have_none(self):
        for s in (cabello18(merge=False), standard_basis(31), two_disjoint_contexts_scenario()):
            assert s._parity_subset is None


class TestVerifyFunc:
    def test_every_found_valuation_is_clean(self):
        for s in (single_context_scenario(), two_disjoint_contexts_scenario()):
            report = verify_func(find_valuation(s), s)
            assert report.ok
            assert report.lines() == []

    def test_two_ones_in_one_context(self):
        s = single_context_scenario()
        report = verify_func({"a": 1, "b": 1, "c": 0, "d": 0}, s)
        assert not report.ok
        assert report.product_violations == ((0, "a", "b"),)
        assert report.additivity_violations == ((0, 2),)

    def test_all_zero_assignment_flags_every_context(self):
        s = two_disjoint_contexts_scenario()
        report = verify_func({r.id: 0 for r in s.rays}, s)
        assert [k for k, _ in report.additivity_violations] == [0, 1]

    def test_non_boolean_value_breaks_idempotence(self):
        s = single_context_scenario()
        report = verify_func({"a": 2, "b": 0, "c": 0, "d": 0}, s)
        assert report.idempotence_violations == ("a",)

    def test_missing_ray_raises(self):
        s = single_context_scenario()
        with pytest.raises(ValueError, match="does not cover"):
            verify_func({"a": 1}, s)

    def test_inexact_values_raise(self):
        s = build_scenario([("a", (1, 0)), ("b", (0, 1))], [["a", "b"]])
        with pytest.raises(TypeError) as err:
            verify_func({"a": 1.0, "b": 0.0}, s)
        assert str(err.value) == "assignment values must be ints, got {'a': 1.0, 'b': 0.0}"
        with pytest.raises(TypeError) as err:
            verify_func({"a": Fraction(1), "b": 0, "unread": 0.5}, s)
        assert str(err.value) == "assignment values must be ints, got {'a': Fraction(1, 1)}"
        assert verify_func({"a": 1, "b": 0, "unread": 0.5}, s).ok

    def test_lines_name_each_violation(self):
        s = single_context_scenario()
        report = verify_func({"a": 2, "b": 1, "c": 0, "d": 0}, s)
        assert report.lines() == [
            "idempotence: v(a)^2 != v(a)",
            "product: context 1 has v(a) * v(b) != 0",
            "additivity: context 1 values sum to 3, expected 1",
        ]


class TestNoncontextualModel:
    def test_constructor_refuses_what_is_not_a_distribution(self):
        valuations = {0: Valuation({"a": 1, "b": 0}), 1: Valuation({"a": 0, "b": 1})}
        cases = [
            ({0: Fraction(1)}, "weights and valuations must share the same keys"),
            ({0: Fraction(3, 2), 1: Fraction(-1, 2)}, "weight 3/2 for valuation 0 is outside [0, 1]"),
            ({0: Fraction(1, 2), 1: Fraction(1, 4)}, "weights must sum to exactly 1"),
        ]
        for weights, message in cases:
            with pytest.raises(ValueError) as err:
                NoncontextualModel(weights, valuations)
            assert str(err.value) == message

    def test_node_budget_is_enforced(self, cabello, monkeypatch):
        s = without_context(cabello, 0)
        rho = DensityOperator.maximally_mixed(4)
        monkeypatch.setattr(ksengine, "SEARCH_NODE_BUDGET", 10)
        # A refusal is not stored: the next call searches and refuses again.
        for _ in range(2):
            with pytest.raises(ScenarioTooLargeError, match="after visiting 10 nodes"):
                noncontextual_model(s, rho)
        monkeypatch.setattr(ksengine, "SEARCH_NODE_BUDGET", 1000)
        model = noncontextual_model(s, rho)
        assert model is not None
        assert model == noncontextual_model(without_context(cabello, 0), rho)

    def test_no_later_search_after_an_infeasible_component(self, cabello, monkeypatch):
        """Five Cabello contexts, which have no model for this pure state,
        then a turned Cabello deletion sharing no ray with them (the first
        turned copy shares some). Their searches visit 79 and 118 nodes.
        Under a budget of 100 the pure state is None on every call, as the
        first component ends the solving before the second is searched,
        even once the first one's columns are stored."""
        part = subscenario(cabello, [0, 1, 3, 4, 5])
        turned = subscenario(turned_copies(without_context(cabello, 0), 2), range(8, 16))
        s = build_scenario(
            [(r.id, r.ints) for r in part.rays + turned.rays],
            [list(c.ray_ids) for c in part.contexts + turned.contexts],
        )
        lone, records = s._components
        assert lone == () and len(records) == 2
        monkeypatch.setattr(ksengine, "SEARCH_NODE_BUDGET", 100)
        pure = DensityOperator.pure((1, 2, 3, 4))
        for _ in range(2):
            assert noncontextual_model(s, pure) is None
            assert [bool(store) for _, store in records] == [True, False]
        mixed = DensityOperator.maximally_mixed(4)
        with pytest.raises(ScenarioTooLargeError, match="after visiting 100 nodes"):
            noncontextual_model(s, mixed)
        monkeypatch.setattr(ksengine, "SEARCH_NODE_BUDGET", 1000)
        assert noncontextual_model(s, mixed) is not None
        assert noncontextual_model(s, pure) is None

    def test_no_valuation_without_a_parity_subset(self, monkeypatch):
        # With the parity refutation hidden, the search finds no valuation
        # of Cabello's set, and the answer is None before any LP is solved.
        solves = []
        # noncontextual_model imports the solver from exactlin when it runs.
        monkeypatch.setattr(exactlin, "_int_nonneg_solve", lambda *args: solves.append(args))
        s = cabello18()
        with unittest.mock.patch.object(KSScenario, "_parity_subset", None):
            assert noncontextual_model(s, DensityOperator.maximally_mixed(4)) is None
        assert solves == []

    def test_weights_must_be_exact(self):
        valuations = {0: Valuation({"a": 1, "b": 0}), 1: Valuation({"a": 0, "b": 1})}
        with pytest.raises(TypeError, match="expected an integer or Fraction, got float"):
            NoncontextualModel({0: 0.5, 1: 0.5}, valuations)
        # The type is checked before the range, so the error names the weight.
        with pytest.raises(TypeError) as err:
            NoncontextualModel({0: "1", 1: 0}, valuations)
        assert str(err.value) == "weight '1' for valuation 0: expected an integer or Fraction, got str"
        model = NoncontextualModel({0: 1, 1: 0}, valuations)
        assert model.ray_probability("a") == 1
        assert {type(w) for w in model.weights.values()} == {Fraction}

    def test_cabello_infeasible_for_any_state(self, cabello):
        for rho in (
            DensityOperator.maximally_mixed(4),
            DensityOperator.pure((1, 0, 0, 0)),
            DensityOperator.mixture([(Fraction(1, 3), (1, 1, 0, 0)), (Fraction(2, 3), (0, 0, 1, 0))]),
        ):
            assert noncontextual_model(cabello, rho) is None

    def test_single_context_mixed_recovers_uniform_weights(self):
        s = single_context_scenario()
        model = noncontextual_model(s, DensityOperator.maximally_mixed(4))
        assert model is not None
        assert sorted(model.weights.values()) == [Fraction(1, 4)] * 4
        for r in s.rays:
            assert model.ray_probability(r.id) == Fraction(1, 4)

    def test_single_context_pure_state_is_a_point_mass(self):
        s = single_context_scenario()
        model = noncontextual_model(s, DensityOperator.pure((0, 0, 1, 0)))
        assert model is not None
        assert list(model.weights.values()) == [Fraction(1)]
        (index,) = model.weights
        assert model.valuations[index].ones() == ("c",)

    def test_model_reproduces_born_probabilities(self):
        from kscheck.probability import born
        from kscheck.lattice import projector_of

        s = two_disjoint_contexts_scenario()
        rho = DensityOperator.mixture(
            [(Fraction(1, 2), (1, 0, 0, 0)), (Fraction(1, 2), (1, 1, 1, 1))]
        )
        model = noncontextual_model(s, rho)
        assert model is not None
        assert sum(model.weights.values()) == 1
        for r in s.rays:
            assert model.ray_probability(r.id) == born(rho, projector_of(r))

    @pytest.mark.parametrize("index", range(9))
    def test_deletions_match_the_fraction_simplex(self, cabello, index):
        """Same weights and valuations as the Fraction simplex fed the
        columns of the public enumeration and the Born targets of the rows
        the peel keeps, and every ray's Born probability reproduced."""
        s = without_context(cabello, index)
        valuations = list(enumerate_valuations(s))
        dropped = {rid for rid, _ in reference_peeled_rays([c.ray_ids for c in s.contexts])}
        kept = [r for r in s.rays if r.id not in dropped]
        rows = [[v[r.id] for v in valuations] for r in kept] + [[1] * len(valuations)]
        rng = random.Random(1000 + index)
        for _ in range(3):
            rho = rand_mixed_state(rng, 4, max_parts=3)
            b = [born(rho, projector_of(r)) for r in kept] + [Fraction(1)]
            ref = reference_nonneg_solve(rows, b)
            model = noncontextual_model(s, rho)
            if ref is None:
                assert model is None
                continue
            assert model is not None
            assert model.weights == {i: w for i, w in enumerate(ref) if w != 0}
            assert model.valuations == {i: valuations[i] for i in model.weights}
            for r in s.rays:
                assert model.ray_probability(r.id) == born(rho, projector_of(r))

    def test_peeled_rows_are_implied(self, cabello, monkeypatch):
        """On Cabello deletions, random {0, +-1}^4 subsets and a ring of
        bases that peels nothing: the verdict is the full LP's, each
        dropped row is the ones row minus the other rows of its context,
        and each component of several contexts gets an LP of the
        reference's kept rows among its own rays, over its own valuations.
        On the deletions, one component each, those rows are as many as
        the full LP's rank."""
        fed = []

        def spy(rows, rhs):
            fed.append(rows)
            return solve(rows, rhs)

        solve = exactlin._int_nonneg_solve
        verdicts = Counter()
        rng = random.Random(77)
        deletions = [without_context(cabello, k) for k in range(9)]
        grids = grid_scenarios(4, rng, 12) + [ring_scenario()]
        assert len(grids) >= 7
        assert reference_peeled_rays([c.ray_ids for c in grids[-1].contexts]) == []
        assert count_valuations(grids[-1]) == 8 and grids[-1]._parity_subset is None
        split = [s for s in grids if len(reference_components([c.ray_ids for c in s.contexts])) > 1]
        assert len(split) >= 5
        monkeypatch.setattr(exactlin, "_int_nonneg_solve", spy)
        for s in deletions + grids:
            valuations = list(enumerate_valuations(s))
            assert valuations
            column = {r.id: [v[r.id] for v in valuations] for r in s.rays}
            full = list(column.values()) + [[1] * len(valuations)]
            contexts = [c.ray_ids for c in s.contexts]
            peeled = reference_peeled_rays(contexts)
            for rid, k in peeled:
                rest = [column[o] for o in contexts[k] if o != rid]
                assert column[rid] == [1 - sum(xs) for xs in zip(*rest)]
            dropped = {rid for rid, _ in peeled}
            if s in deletions:
                kept = [column[r.id] for r in s.rays if r.id not in dropped]
                assert len(kept) + 1 == reference_rank(full)
            lps = component_lps(s, dropped)
            for _ in range(1 if s in grids[:-1] else 2):
                rho = rand_mixed_state(rng, 4, max_parts=3)
                b = [born(rho, projector_of(r)) for r in s.rays] + [Fraction(1)]
                del fed[:]
                model = noncontextual_model(s, rho)
                # The first component with no model ends the solving.
                assert fed == (lps if model is not None else lps[: len(fed)])
                feasible = reference_nonneg_solve(full, b) is not None
                assert (model is not None) == feasible
                verdicts[feasible] += 1
        assert verdicts[True] >= 3 and verdicts[False] >= 3

    def test_interleaved_components_keep_the_whole_peels_rows(self, cabello, monkeypatch):
        """Three turned copies of a Cabello deletion, their contexts
        shuffled so that the components alternate in input order: each
        component's LP has the rows that the reference peel of the whole
        scenario keeps among its own rays, over its own valuations."""
        fed = []

        def spy(rows, rhs):
            fed.append(rows)
            return solve(rows, rhs)

        solve = exactlin._int_nonneg_solve
        monkeypatch.setattr(exactlin, "_int_nonneg_solve", spy)
        copies = turned_copies(without_context(cabello, 0), 3)
        rays = [(r.id, r.ints) for r in copies.rays]
        contexts = [c.ray_ids for c in copies.contexts]
        rng = random.Random(28)
        verdicts = Counter()
        for _ in range(3):
            rng.shuffle(contexts)
            s = build_scenario(rays, contexts)
            components = reference_components(contexts)
            assert len(components) == 3
            assert all(a[-1] > b[0] for a, b in zip(components, components[1:]))
            dropped = {rid for rid, _ in reference_peeled_rays(contexts)}
            lps = component_lps(s, dropped)
            for rho in (DensityOperator.maximally_mixed(4), DensityOperator.pure((1, 2, 3, 4))):
                del fed[:]
                model = noncontextual_model(s, rho)
                # The first component with no model ends the solving.
                assert fed == (lps if model is not None else lps[: len(fed)])
                verdicts[model is not None] += 1
        assert verdicts[True] >= 1 and verdicts[False] >= 1

    def test_wide_lps_match_the_fraction_simplex(self, cabello, monkeypatch):
        """The LP of every Cabello deletion and of {0, +-1}^4 subsets of one
        component with 26 to 120 valuations, each under several states, has
        the Fraction simplex's vertex or, like it, none. The subsets' LPs
        are as wide as the benchmark's, and both verdicts occur."""
        fed = []

        def spy(rows, rhs):
            solution = solve(rows, rhs)
            fed.append((rows, rhs, solution))
            return solution

        solve = exactlin._int_nonneg_solve
        rng = random.Random(121)
        wide = [s for s in connected_grid_scenarios(rng, 40) if 26 <= count_valuations(s) <= 120]
        assert len(wide) >= 12
        assert all(s._components[0] == () and len(s._components[1]) == 1 for s in wide)
        monkeypatch.setattr(exactlin, "_int_nonneg_solve", spy)
        for s in [without_context(cabello, k) for k in range(9)] + wide[:12]:
            for _ in range(3):
                noncontextual_model(s, rand_mixed_state(rng, 4, max_parts=3))
        assert len(fed) == 63
        assert max(len(rows[0]) for rows, _, _ in fed) >= 96
        verdicts = Counter()
        for rows, rhs, solution in fed:
            ref = reference_nonneg_solve(rows, rhs)
            if ref is None:
                assert solution is None
            else:
                assert solution == {j: x for j, x in enumerate(ref) if x}
            verdicts[ref is not None] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 10

    def test_one_search_per_model(self, cabello, monkeypatch):
        """A component of more than one context is searched and peeled once
        per scenario, however many states ask about it, and each state gets
        the model that a freshly built scenario gives it, whether it is
        solved first or after the others."""
        calls = Counter()

        def spy_on(module, name):
            real = getattr(module, name)

            def spy(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, spy)

        spy_on(ksengine, "_search")
        spy_on(kscheck.model, "_kept_rays")
        rng = random.Random(27)
        states = [
            DensityOperator.maximally_mixed(4),
            DensityOperator.pure((1, 2, 3, 4)),
            rand_mixed_state(rng, 4, max_parts=3),
        ]
        makers = [lambda k=k: without_context(cabello, k) for k in range(9)]
        # Three turned copies of a deletion: three components of 8 contexts.
        makers.append(lambda: turned_copies(without_context(cabello, 0), 3))
        fresh = [[noncontextual_model(make(), rho) for rho in states] for make in makers]
        verdicts = Counter(model is not None for models in fresh for model in models)
        assert verdicts[True] >= 3 and verdicts[False] >= 3
        for order in ((0, 1, 2), (2, 1, 0)):
            calls.clear()
            for make, models in zip(makers, fresh):
                s = make()
                for j in order:
                    assert noncontextual_model(s, states[j]) == models[j]
            assert calls == {"_search": 9 + 3, "_kept_rays": 9 + 3}

    def test_valuation_limit(self, monkeypatch):
        s = single_context_scenario()
        rho = DensityOperator.maximally_mixed(4)
        monkeypatch.setattr(kscheck.model, "MODEL_VALUATION_LIMIT", 3)
        with pytest.raises(ScenarioTooLargeError, match="more than 3 valuations"):
            noncontextual_model(s, rho)
        monkeypatch.setattr(kscheck.model, "MODEL_VALUATION_LIMIT", 4)
        assert noncontextual_model(s, rho) is not None

    def test_valuation_limit_holds_for_stored_columns(self, cabello, monkeypatch):
        """A deletion has 26 valuations. A search past the limit stores
        nothing, and the stored columns meet the limit in force on every
        call."""
        s = without_context(cabello, 0)
        rho = DensityOperator.maximally_mixed(4)
        fresh = noncontextual_model(without_context(cabello, 0), rho)
        monkeypatch.setattr(kscheck.model, "MODEL_VALUATION_LIMIT", 10)
        with pytest.raises(ScenarioTooLargeError, match="more than 10 valuations"):
            noncontextual_model(s, rho)
        monkeypatch.setattr(kscheck.model, "MODEL_VALUATION_LIMIT", 26)
        assert noncontextual_model(s, rho) == fresh
        monkeypatch.setattr(kscheck.model, "MODEL_VALUATION_LIMIT", 25)
        with pytest.raises(ScenarioTooLargeError, match="more than 25 valuations"):
            noncontextual_model(s, rho)

    def test_dimension_mismatch(self, cabello):
        with pytest.raises(ValueError):
            noncontextual_model(cabello, DensityOperator.maximally_mixed(3))


class TestOrthogonalityGraph:
    def test_single_context_is_complete(self):
        edges = orthogonality_graph(single_context_scenario())
        assert len(edges) == 6

    def test_cabello_edge_count(self, cabello):
        # 63 orthogonal pairs among the 153, pinned by brute force.
        edges = orthogonality_graph(cabello)
        assert len(edges) == 63
        assert edges == tuple(sorted(edges))
        assert all(a < b for a, b in edges)

    def test_one_ray_scenario_has_no_edges(self):
        s = build_scenario([("only", (1,))], [["only"]])
        assert orthogonality_graph(s) == ()
        assert count_valuations(s) == 1
        assert find_valuation(s).ones() == ("only",)

    def test_edges_match_pairwise_dot(self, cabello):
        edges = set(orthogonality_graph(cabello))
        by_id = {r.id: r for r in cabello.rays}
        import itertools

        for a, b in itertools.combinations(sorted(by_id), 2):
            expected = by_id[a].coords.dot(by_id[b].coords) == 0
            assert ((a, b) in edges) == expected

    @pytest.mark.parametrize(
        "basis",
        [
            [(1,)],
            [(1, 1), (1, -1)],
            [(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)],
        ],
    )
    def test_dot_products_at_the_slot_bound(self, basis):
        # With every coordinate +-1, a ray's copies in other contexts have
        # dot product dim * m**2, the bound the slots are sized by, so the
        # biased sum reaches its largest value, 2 * dim * m**2. Canonical
        # rays have a positive first nonzero coordinate, so -dim * m**2
        # cannot occur.
        dim = len(basis)
        ids = [f"h{i}" for i in range(dim)]
        s = build_scenario(list(zip(ids, basis)), [ids, ids, ids], merge=False)
        expected = tuple(
            (a.id, b.id)
            for a, b in itertools.combinations(sorted(s.rays, key=lambda r: r.id), 2)
            if not sum(x * y for x, y in zip(a.ints, b.ints))
        )
        assert orthogonality_graph(s) == expected
        assert len(expected) == 3 * dim * (dim - 1) * 3 // 2

    @given(st.data())
    @settings(deadline=None)
    def test_edges_are_the_pairs_with_zero_rational_dot(self, data):
        dim = data.draw(st.integers(1, 6))
        big = 10**24
        entry = st.integers(-1, 1) | st.integers(-big, big) | st.sampled_from([-big, big])
        entries = st.lists(entry, min_size=dim, max_size=dim)
        rays, contexts = [], []
        for k in range(data.draw(st.integers(1, 4))):
            basis = gram_schmidt(data.draw(st.lists(entries, min_size=dim, max_size=dim)))
            if basis is None:
                continue
            ids = [f"c{k}r{i}" for i in range(dim)]
            rays += zip(ids, basis)
            contexts.append(ids)
        assume(contexts)
        s = build_scenario(rays, contexts)
        expected = tuple(
            (a.id, b.id)
            for a, b in itertools.combinations(sorted(s.rays, key=lambda r: r.id), 2)
            if a.coords.dot(b.coords) == 0
        )
        assert orthogonality_graph(s) == expected


class TestValuationType:
    def test_rejects_non_boolean_values(self):
        with pytest.raises(ValueError):
            Valuation({"a": 2})

    def test_rejects_values_that_are_not_ints(self):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            Valuation({"a": 0.5, "b": 0})
        for one in (1.0, Fraction(1)):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                Valuation({"a": one, "b": 0})

    def test_ones_and_lookup(self):
        v = Valuation({"a": 1, "b": 0})
        assert v["a"] == 1 and "b" in v
        assert v.ones() == ("a",)
