import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from kscheck import cabello18
from kscheck.exactlin import RMatrix
from kscheck.probability import (
    DensityOperator,
    FiniteProbabilitySpace,
    born,
    check_classical_axioms,
    check_state_axioms,
    context_distribution,
    event_probability,
    expectation,
    finite_pvm_check,
    ray_probability,
)
from kscheck.ksengine import build_scenario, without_context
from kscheck.model import noncontextual_model
from kscheck.lattice import Projector, projector_of
from kscheck.qlogic import Context, ContextError, Ray, validate_context

from helpers import gram_schmidt, int_digit_limit, rand_mixed_state

# Not a basis: the rays are not orthogonal. Every check that used to
# report such a context now meets the Context constructor's refusal.
NON_BASIS = (Ray("a", (1, 0)), Ray("b", (1, 1)))
NON_BASIS_MESSAGE = "rays a(1, 0) and b(1, 1) are not orthogonal (dot = 1)"


def refusal(rays) -> ValueError:
    """The error ``Context(rays)`` raises; fails if it accepts them."""
    with pytest.raises(ValueError) as err:
        Context(rays)
    return err.value


class CountingWeights(dict):
    """A state's weight memo that records the key of each weight stored."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


@pytest.fixture(scope="module")
def cabello():
    return cabello18()


@pytest.fixture()
def dice():
    return FiniteProbabilitySpace.uniform(range(1, 7))


class TestClassicalSpace:
    def test_even_outcome(self, dice):
        assert event_probability(dice, {2, 4, 6}) == Fraction(1, 2)

    def test_outcome_greater_than_three(self, dice):
        assert event_probability(dice, {4, 5, 6}) == Fraction(1, 2)

    def test_empty_event(self, dice):
        assert event_probability(dice, set()) == 0

    def test_unknown_label(self, dice):
        with pytest.raises(ValueError):
            event_probability(dice, {7})

    def test_axioms_pass_on_uniform(self, dice):
        assert check_classical_axioms(dice).ok

    def test_axioms_fail_on_bad_total(self):
        space = FiniteProbabilitySpace((1, 2), {1: Fraction(2, 3), 2: Fraction(1, 2)})
        report = check_classical_axioms(space)
        assert not report.ok
        assert any("7/6" in v for v in report.violations)

    def test_axioms_fail_on_negative_weight(self):
        space = FiniteProbabilitySpace(
            (1, 2), {1: Fraction(7, 6), 2: Fraction(-1, 6)}
        )
        report = check_classical_axioms(space)
        assert any("negative" in v for v in report.violations)

    def test_uniform_needs_an_outcome(self):
        with pytest.raises(ValueError, match="at least one outcome"):
            FiniteProbabilitySpace.uniform(())

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace((1, 2), {1: Fraction(1)})
        with pytest.raises(ValueError):
            FiniteProbabilitySpace((1, 1), {1: Fraction(1)})


class TestDensityOperator:
    def test_pure_state_is_the_projector(self):
        rho = DensityOperator.pure((1, 1, 0, 0))
        assert rho.matrix == projector_of(Ray("x", (1, 1, 0, 0))).matrix

    def test_trace_must_be_one(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(RMatrix.identity(4))

    def test_symmetry_required(self):
        m = RMatrix(((Fraction(1, 2), 1), (0, Fraction(1, 2))))
        with pytest.raises(ValueError, match="symmetric"):
            DensityOperator(m)

    def test_psd_required(self):
        m = RMatrix(((Fraction(3, 2), 0), (0, Fraction(-1, 2))))
        with pytest.raises(ValueError, match="semidefinite"):
            DensityOperator(m)

    def test_psd_zero_diagonal_with_offdiagonal_rejected(self):
        m = RMatrix(((0, Fraction(1, 2)), (Fraction(1, 2), 1)))
        with pytest.raises(ValueError, match="semidefinite"):
            DensityOperator(m)

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DensityOperator.mixture([(Fraction(1, 2), (1, 0))])

    def test_random_mixtures_are_valid(self):
        rng = random.Random(31)
        for _ in range(50):
            rho = rand_mixed_state(rng, rng.randint(2, 4))
            assert rho.matrix.trace() == 1

    def test_psd_check_matches_principal_minor_oracle(self):
        # A symmetric matrix is PSD iff every principal minor is >= 0.
        # Cross-check the fraction-free elimination on integer matrices
        # against determinants computed independently by Laplace expansion.
        import itertools
        from math import lcm

        from kscheck.probability import _is_psd

        def det(rows):
            n = len(rows)
            if n == 1:
                return rows[0][0]
            total = Fraction(0)
            for j in range(n):
                if rows[0][j] == 0:
                    continue
                minor = [
                    [rows[i][c] for c in range(n) if c != j] for i in range(1, n)
                ]
                total += (-1) ** j * rows[0][j] * det(minor)
            return total

        def psd_by_minors(rows):
            n = len(rows)
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    sub = [[rows[i][j] for j in subset] for i in subset]
                    if det(sub) < 0:
                        return False
            return True

        def agrees(rows):
            expected = psd_by_minors(rows)
            assert _is_psd([list(row) for row in rows]) == expected, rows
            return expected

        def symmetric(half):
            n = len(half)
            return [[half[i][j] + half[j][i] for j in range(n)] for i in range(n)]

        # Rational matrices, cleared to integers: scaling by the positive
        # lcm of the denominators keeps the sign of every minor.
        rng = random.Random(67)
        verdicts = []
        for _ in range(150):
            n = rng.randint(1, 4)
            half = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
            sym = symmetric(half)
            common = lcm(*[x.denominator for row in sym for x in row])
            expected = agrees([[int(x * common) for x in row] for row in sym])
            assert psd_by_minors(sym) == expected
            verdicts.append(expected)
        assert verdicts.count(True) > 10 and verdicts.count(False) > 10  # both verdicts exercised
        rng = random.Random(71)
        for _ in range(100):
            n = rng.randint(1, 5)
            verdicts.append(agrees(symmetric([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])))
        assert verdicts.count(True) > 20 and verdicts.count(False) > 20

        def gram(n, k):
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            return [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]

        # B^T B with fewer rows than columns: PSD and singular, so the
        # elimination meets a zero pivot, whose row must be zero.
        for _ in range(100):
            n = rng.randint(2, 5)
            assert agrees(gram(n, rng.randint(1, n - 1)))
        # A zero diagonal entry with a nonzero entry in its row is never
        # PSD: the 2x2 minor through both is negative. The rest of the
        # matrix is PSD, so where the zero comes first nothing else fails.
        for _ in range(100):
            n = rng.randint(2, 5)
            m = gram(n, rng.randint(1, n))
            i, j = rng.sample(range(n), 2)
            m[i] = [0] * n
            for row in m:
                row[i] = 0
            m[i][j] = m[j][i] = rng.choice([-2, -1, 1, 2])
            assert not agrees(m)

    def test_maximally_mixed_needs_a_positive_dimension(self):
        for dim in (0, -1):
            with pytest.raises(ValueError):
                DensityOperator.maximally_mixed(dim)
        for dim in range(1, 6):
            rho = DensityOperator.maximally_mixed(dim)
            assert rho._scaled == (dim, tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))
            assert DensityOperator(rho.matrix) == rho

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_unchecked_constructors_are_sound(self, data):
        # pure and mixture skip the constructor's checks. Their states must
        # pass those checks, in the form the constructor stores.
        import math

        dim = data.draw(st.integers(1, 5))
        vector = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
        vectors = [tuple(data.draw(vector))]
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(["new", "collinear", "flipped"]))
            if kind == "new":
                vectors.append(tuple(data.draw(vector)))
            else:
                k = data.draw(st.integers(2, 3)) if kind == "collinear" else -1
                vectors.append(tuple(k * x for x in data.draw(st.sampled_from(vectors))))
        raw = data.draw(
            st.lists(st.integers(0, 5), min_size=len(vectors), max_size=len(vectors)).filter(any)
        )
        weights = [Fraction(w, sum(raw)) for w in raw]
        rho = DensityOperator.mixture(list(zip(weights, vectors)))
        # The sum of w v v^T / (v . v), entry by entry in Fractions.
        assert rho.matrix.rows == tuple(
            tuple(
                sum(w * Fraction(v[i] * v[j], sum(x * x for x in v)) for w, v in zip(weights, vectors))
                for j in range(dim)
            )
            for i in range(dim)
        )
        checked = DensityOperator(rho.matrix)
        assert checked == rho and hash(checked) == hash(rho)
        common, rows = rho._scaled
        assert common > 0 and math.gcd(common, *[x for row in rows for x in row]) == 1
        # The form the checked constructor stores: the lcm of the
        # denominators and the numerators over it.
        lcm_den = math.lcm(*[x.denominator for row in rho.matrix.rows for x in row])
        assert rho._scaled == checked._scaled == (
            lcm_den,
            tuple(tuple(x.numerator * (lcm_den // x.denominator) for x in row) for row in rho.matrix.rows),
        )
        v, k = vectors[0], data.draw(st.integers(-4, 4).filter(bool))
        pure = DensityOperator.pure(v)
        assert pure == DensityOperator.pure([k * x for x in v]) == DensityOperator(pure.matrix)
        assert hash(pure) == hash(DensityOperator.pure([Fraction(x, k) for x in v]))


class TestBorn:
    def test_pure_state_on_its_own_ray(self):
        rho = DensityOperator.pure((0, 0, 0, 1))
        assert born(rho, projector_of(Ray("z", (0, 0, 0, 1)))) == 1

    def test_pure_state_on_orthogonal_ray(self):
        rho = DensityOperator.pure((0, 0, 0, 1))
        assert born(rho, projector_of(Ray("y", (0, 0, 1, 0)))) == 0

    def test_maximally_mixed_gives_quarter(self, cabello):
        rho = DensityOperator.maximally_mixed(4)
        for r in cabello.rays:
            assert born(rho, projector_of(r)) == Fraction(1, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            born(DensityOperator.maximally_mixed(3), Projector.identity(4))

    def test_range_and_additivity_on_random_states(self, cabello):
        rng = random.Random(17)
        pairs = [
            (a, b)
            for a in cabello.rays
            for b in cabello.rays
            if a.id < b.id and a.is_orthogonal_to(b)
        ]
        for _ in range(40):
            rho = rand_mixed_state(rng, 4)
            for r in cabello.rays:
                p = born(rho, projector_of(r))
                assert 0 <= p <= 1
            a, b = pairs[rng.randrange(len(pairs))]
            pa, pb = projector_of(a), projector_of(b)
            assert born(rho, pa + pb) == born(rho, pa) + born(rho, pb)


class TestContextDistribution:
    def test_maximally_mixed_is_uniform_everywhere(self, cabello):
        rho = DensityOperator.maximally_mixed(4)
        for c in cabello.contexts:
            space = context_distribution(rho, c)
            assert all(space.weights[o] == Fraction(1, 4) for o in space.outcomes)

    def test_pure_state_on_a_context_ray_is_degenerate(self, cabello):
        c = cabello.contexts[0]
        rho = DensityOperator.pure(c.rays[2].coords)
        space = context_distribution(rho, c)
        assert [space.weights[o] for o in space.outcomes] == [0, 0, 1, 0]

    def test_pure_1100_on_first_context(self, cabello):
        rho = DensityOperator.pure((1, 1, 0, 0))
        space = context_distribution(rho, cabello.contexts[0])
        weights = {o: space.weights[o] for o in space.outcomes}
        assert weights == {"r0001": 0, "r0010": 0, "r1100": 1, "r1m00": 0}

    @given(st.data())
    @settings(deadline=None)
    def test_weights_equal_full_matrix_born_values(self, data):
        dim = data.draw(st.integers(2, 4))
        entries = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        basis = gram_schmidt(data.draw(st.lists(entries, min_size=dim, max_size=dim)))
        assume(basis is not None)
        context = validate_context([Ray(f"r{i}", v) for i, v in enumerate(basis)], dim)
        parts = data.draw(
            st.lists(st.tuples(st.integers(1, 9), entries.filter(any)), min_size=1, max_size=3)
        )
        total = sum(w for w, _ in parts)
        rho = DensityOperator.mixture([(Fraction(w, total), v) for w, v in parts])
        space = context_distribution(rho, context)
        assert space.weights == {r.id: born(rho, projector_of(r)) for r in context.rays}

    def test_non_orthogonal_context_fails_the_sum_check(self):
        # Its Born weights would sum to 3/2, but no such context is built,
        # so context_distribution needs no sum check.
        rho = DensityOperator.pure((1, 0))
        assert sum(ray_probability(rho, r) for r in NON_BASIS) == Fraction(3, 2)
        err = refusal(NON_BASIS)
        assert type(err) is ContextError and str(err) == NON_BASIS_MESSAGE

    def test_equals_the_checked_space(self, cabello):
        # Built unchecked, it must equal what the constructor builds from
        # the context's ids and the projector's Born weights.
        rng = random.Random(29)
        for _ in range(30):
            rho = rand_mixed_state(rng, 4)
            c = cabello.contexts[rng.randrange(9)]
            space = context_distribution(rho, c)
            weights = {r.id: born(rho, projector_of(r)) for r in c.rays}
            assert space == FiniteProbabilitySpace(c.ray_ids, weights)
            assert type(space.outcomes) is tuple and type(space.weights) is dict
            assert all(type(w) is Fraction for w in space.weights.values())

    def test_one_weight_per_distinct_ray(self, cabello):
        """Over all nine contexts each of Cabello's 18 rays is weighed once,
        though every ray lies in two contexts, and each weight is the
        projector's Born value. The model LP of a deletion then reuses the
        weights."""
        rng = random.Random(31)
        for rho in (DensityOperator.maximally_mixed(4), rand_mixed_state(rng, 4), rand_mixed_state(rng, 4)):
            memo = vars(rho)["_ray_weights"] = CountingWeights()
            spaces = [context_distribution(rho, c) for c in cabello.contexts]
            assert len(memo.stored) == 18
            assert sorted(memo.stored) == sorted(r.ints for r in cabello.rays)
            for space, c in zip(spaces, cabello.contexts):
                assert space.weights == {r.id: born(rho, projector_of(r)) for r in c.rays}
            noncontextual_model(without_context(cabello, 0), rho)
            assert len(memo.stored) == 18

    def test_dimension_is_checked_before_the_memo(self):
        rho = DensityOperator.maximally_mixed(3)
        with pytest.raises(ValueError, match="dimension mismatch: state 3, ray 4"):
            ray_probability(rho, Ray("a", (1, 0, 0, 0)))
        assert "_ray_weights" not in vars(rho)
        assert ray_probability(rho, Ray("a", (1, 0, 0))) == Fraction(1, 3)
        assert vars(rho)["_ray_weights"] == {(1, 0, 0): Fraction(1, 3)}

    def test_sums_to_one_for_random_states(self, cabello):
        rng = random.Random(23)
        for _ in range(60):
            rho = rand_mixed_state(rng, 4)
            c = cabello.contexts[rng.randrange(9)]
            assert context_distribution(rho, c).total() == 1


class TestStateAxioms:
    def test_pass_on_random_states_over_cabello(self, cabello):
        rng = random.Random(41)
        for _ in range(5):
            rho = rand_mixed_state(rng, 4)
            assert check_state_axioms(rho, cabello).ok

    def test_full_context_family_sums_to_one(self, cabello):
        rho = DensityOperator.pure((1, 2, 3, 4))
        for c in cabello.contexts:
            total = sum(
                (born(rho, projector_of(r)) for r in c.rays), Fraction(0)
            )
            assert total == 1 == born(rho, Projector.identity(4))

    def test_non_orthogonal_context_is_reported_not_raised(self):
        # The context is refused when built, so no scenario holds it, and
        # the axioms hold on every scenario that can be built.
        err = refusal(NON_BASIS)
        assert type(err) is ContextError and str(err) == NON_BASIS_MESSAGE
        s = build_scenario([("a", (1, 0)), ("b", (0, 1))], [["a", "b"]])
        assert check_state_axioms(DensityOperator.maximally_mixed(2), s).violations == ()

    def test_dimension_mismatch_raises(self, cabello):
        with pytest.raises(ValueError) as err:
            check_state_axioms(DensityOperator.maximally_mixed(3), cabello)
        assert str(err.value) == "dimension mismatch: state 3, scenario 4"


class TestPvm:
    def test_cabello_contexts_pass_all_axioms(self, cabello):
        assert finite_pvm_check(cabello.contexts).ok

    def test_complement_rule_example(self, cabello):
        c = cabello.contexts[0]
        p12 = projector_of(c.rays[0]) + projector_of(c.rays[1])
        p34 = projector_of(c.rays[2]) + projector_of(c.rays[3])
        assert p34.matrix == RMatrix.identity(4) - p12.matrix

    def test_singletons_recover_atoms(self, cabello):
        c = cabello.contexts[0]
        for r in c.rays:
            assert projector_of(r).trace() == 1

    def test_non_orthogonal_context_report_is_pinned(self):
        # The refusal is pinned where the report used to be.
        err = refusal(NON_BASIS)
        assert type(err) is ContextError and str(err) == NON_BASIS_MESSAGE

    def test_mixed_dimension_context_is_reported_not_raised(self):
        err = refusal((Ray("a", (1, 0)), Ray("b", (0, 0, 1))))
        assert type(err) is ContextError and str(err) == "ray b has dimension 3, expected 2"

    def test_unprintable_context_is_reported_not_raised(self):
        # The violation message cannot print coordinates this long, so the
        # refusal is the interpreter's ValueError, as from validate_context.
        big = 10 ** (int_digit_limit() + 1)
        rays = (Ray("a", (big, 1)), Ray("b", (1, 1)))
        err = refusal(rays)
        with pytest.raises(ValueError) as direct:
            validate_context(rays, 2)
        assert str(err) == str(direct.value)


    def test_repeated_ray_id_reaches_neither_caller(self):
        # finite_pvm_check keys atoms by id and would judge this basis on
        # one ray, while context_distribution refuses repeated outcomes.
        # The constructor now refuses the context for both.
        rho = DensityOperator.maximally_mixed(2)
        rays = (Ray("a", (1, 0)), Ray("a", (0, 1)))
        with pytest.raises(ValueError, match="ray ids must be distinct"):
            finite_pvm_check([Context(rays)])
        with pytest.raises(ValueError, match="ray ids must be distinct"):
            context_distribution(rho, Context(rays))
        c = Context((Ray("a", (1, 0)), Ray("b", (0, 1))))
        assert finite_pvm_check([c]).ok
        assert context_distribution(rho, c).weights == {"a": Fraction(1, 2), "b": Fraction(1, 2)}

class TestMeanValue:
    def test_context_observable_expectation(self, cabello):
        # <A> = trace(rho A) must equal the eigenvalue-weighted Born sum
        # for A assembled from one context's projectors.
        rng = random.Random(53)
        for _ in range(30):
            rho = rand_mixed_state(rng, 4)
            c = cabello.contexts[rng.randrange(9)]
            eigenvalues = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
            observable = RMatrix.zeros(4, 4)
            for a, r in zip(eigenvalues, c.rays):
                observable = observable + projector_of(r).matrix.scale(a)
            direct = expectation(rho, observable)
            weighted = sum(
                (a * born(rho, projector_of(r)) for a, r in zip(eigenvalues, c.rays)),
                Fraction(0),
            )
            assert direct == weighted


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DensityOperator.mixture([]), "mixture needs at least one component"),
        (
            lambda: DensityOperator.mixture([(-1, (1, 0)), (2, (0, 1))]),
            "mixture weights must be nonnegative",
        ),
        (
            lambda: DensityOperator.mixture([(Fraction(1, 2), (1, 0)), (Fraction(1, 2), (1, 0, 0))]),
            "mixture components have different dimensions",
        ),
        (lambda: DensityOperator(RMatrix([[1, 0]])), "density operator must be square"),
        (
            lambda: expectation(DensityOperator.pure((1, 0, 0)), RMatrix([[1, 0, 0]])),
            "observable shape does not match the state",
        ),
    ],
    ids=["empty-mixture", "negative-weight", "mixed-dims", "non-square", "observable-shape"],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message
