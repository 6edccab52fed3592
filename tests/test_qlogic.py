import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from kscheck import cabello18
from kscheck.exactlin import RMatrix, RVector, outer
from kscheck.lattice import (
    Projector,
    Subspace,
    boolean_algebra_of,
    canonical_ray_coords,
    join,
    meet,
    ortho,
    projector_of,
)
from kscheck.qlogic import Context, ContextError, Ray, validate_context

from helpers import (
    gram_schmidt,
    rand_subspace,
    rand_subspace_of,
    reference_boolean_algebra,
    reference_is_rref,
)


def vec(*xs):
    return RVector(tuple(xs))


class TestCanonicalRay:
    def test_common_factor(self):
        assert canonical_ray_coords(vec(2, 2, 0, 0)) == vec(1, 1, 0, 0)

    def test_sign_rule(self):
        assert canonical_ray_coords(vec(0, 0, -3, 0)) == vec(0, 0, 1, 0)

    def test_sign_rule_on_mostly_negative_ray(self):
        assert canonical_ray_coords(vec(-1, 1, 1, 1)) == vec(1, -1, -1, -1)

    def test_clears_denominators(self):
        assert canonical_ray_coords(vec(Fraction(1, 2), Fraction(1, 3))) == vec(3, 2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            canonical_ray_coords(vec(0, 0, 0, 0))

    def test_proportional_rays_canonicalize_identically(self):
        rng = random.Random(3)
        for _ in range(200):
            raw = [rng.randint(-5, 5) for _ in range(4)]
            if all(x == 0 for x in raw):
                continue
            k = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            assert canonical_ray_coords(vec(*raw)) == canonical_ray_coords(
                vec(*raw).scale(k)
            )

    def test_ray_constructor_canonicalizes(self):
        assert Ray("a", (2, 2, 0, 0)).coords == vec(1, 1, 0, 0)
        assert Ray("a", (2, 2, 0, 0)) == Ray("a", (-1, -1, 0, 0))

    def test_ints_are_plain_ints_for_every_input_type(self):
        # bool is an int subclass, yet a ray stores plain ints.
        cases = [
            ((True, False), (1, 0)),
            ((True, 2), (1, 2)),
            ((Fraction(1, 2), Fraction(-1, 3)), (3, -2)),
            ((Fraction(4), 6), (2, 3)),
            (vec(2, 4), (1, 2)),
            ((-2, 4, 0), (1, -2, 0)),
            ((0, -3, 6), (0, 1, -2)),
            ((6, 9), (2, 3)),
        ]
        for coords, ints in cases:
            r = Ray("r", coords)
            assert r.ints == ints
            assert {type(x) for x in r.ints} == {int}

    def test_id_must_be_a_str(self):
        # An int id would fail only later, where ids are sorted or joined.
        for bad in (1, None, ("a",)):
            with pytest.raises(TypeError, match="ray id must be a str"):
                Ray(bad, (1, 0))


class TestProjectorOf:
    def test_basis_ray(self):
        p = projector_of(Ray("z", (0, 0, 0, 1)))
        assert p.matrix == RMatrix(((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)))

    def test_diagonal_ray(self):
        p = projector_of(Ray("d", (1, 1, 0, 0)))
        h = Fraction(1, 2)
        assert p.matrix == RMatrix(((h, h, 0, 0), (h, h, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))

    def test_full_support_ray(self):
        p = projector_of(Ray("f", (1, -1, 1, -1)))
        q = Fraction(1, 4)
        assert all(abs(x) == q for row in p.matrix.rows for x in row)
        assert p.trace() == 1

    def test_projector_invariants_enforced(self):
        with pytest.raises(ValueError):
            Projector(RMatrix(((1, 1), (0, 1))))  # not symmetric
        with pytest.raises(ValueError):
            Projector(RMatrix(((1, 0), (0, 2))))  # not idempotent


class TestLatticeOps:
    def test_meet_with_complement_is_zero(self):
        rng = random.Random(11)
        for _ in range(100):
            s = rand_subspace(rng, rng.randint(2, 4))
            assert meet(s, ortho(s)).is_zero()

    def test_join_of_axes(self):
        s = Subspace.span([vec(1, 0, 0, 0)])
        t = Subspace.span([vec(0, 1, 0, 0)])
        assert join(s, t) == Subspace.span([vec(1, 0, 0, 0), vec(0, 1, 0, 0)])

    def test_ortho_of_diagonal_ray(self):
        o = ortho(Subspace.span([vec(1, 1, 0, 0)]))
        assert o.dim == 3
        assert o.contains(vec(1, -1, 0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            meet(Subspace.full(2), Subspace.full(3))

    def test_double_complement(self):
        rng = random.Random(5)
        for _ in range(200):
            s = rand_subspace(rng, rng.randint(2, 4))
            assert ortho(ortho(s)) == s

    def test_de_morgan(self):
        rng = random.Random(6)
        for _ in range(200):
            dim = rng.randint(2, 4)
            s, t = rand_subspace(rng, dim), rand_subspace(rng, dim)
            assert ortho(join(s, t)) == meet(ortho(s), ortho(t))

    def test_orthomodular_law(self):
        rng = random.Random(7)
        for _ in range(200):
            t = rand_subspace(rng, rng.randint(2, 4))
            s = rand_subspace_of(rng, t)
            assert join(s, meet(t, ortho(s))) == t

    def test_modular_law(self):
        rng = random.Random(8)
        for _ in range(200):
            dim = rng.randint(2, 4)
            u = rand_subspace(rng, dim)
            s = rand_subspace_of(rng, u)
            t = rand_subspace(rng, dim)
            assert join(s, meet(t, u)) == meet(join(s, t), u)

    def test_distributivity_fails_in_general(self):
        s = Subspace.span([vec(1, 1)])
        t = Subspace.span([vec(1, 0)])
        u = Subspace.span([vec(0, 1)])
        lhs = meet(s, join(t, u))
        rhs = join(meet(s, t), meet(s, u))
        assert lhs == s
        assert rhs.is_zero()
        assert lhs != rhs

    def test_meet_satisfies_the_dimension_formula(self):
        # independent cross-check of meet: dim(s ^ t) = dim s + dim t - dim(s v t),
        # and the meet is contained in both operands
        rng = random.Random(19)
        for _ in range(200):
            dim = rng.randint(2, 4)
            s, t = rand_subspace(rng, dim), rand_subspace(rng, dim)
            m = meet(s, t)
            assert m.dim == s.dim + t.dim - join(s, t).dim
            assert m.leq(s) and m.leq(t)

    def test_subspace_equality_is_representation_free(self):
        a = Subspace.span([vec(1, 1, 0, 0), vec(0, 2, 0, 0)])
        b = Subspace.span([vec(3, 0, 0, 0), vec(5, 7, 0, 0)])
        assert a == b

    def test_rejects_non_rref_basis(self):
        with pytest.raises(ValueError):
            Subspace(2, (vec(2, 0),))
        with pytest.raises(ValueError):
            Subspace(2, (vec(0, 1), vec(1, 0)))


RREF_ENTRIES = st.sampled_from([0, 0, 0, 1, 1, -1, 2, Fraction(1, 2)])


class TestSubspaceConstructor:
    def test_one_message_per_fault(self):
        not_rref = "subspace basis is not in reduced row echelon form"
        cases = [
            ((0, ()), "ambient dimension must be positive"),
            ((2, (vec(1, 0, 0),)), "basis row has wrong dimension"),
            ((2, (vec(1, 0), vec(0, 0))), "zero row in subspace basis"),
            ((2, (vec(2, 0),)), not_rref),
            ((2, (vec(0, 1), vec(1, 0))), not_rref),
            ((2, (vec(1, 1), vec(0, 1))), not_rref),
            ((2, (vec(1, 0), vec(1, 0))), not_rref),
            ((2, (vec(1, 0), vec(0, 1), vec(0, 1))), not_rref),
        ]
        for args, message in cases:
            with pytest.raises(ValueError) as err:
                Subspace(*args)
            assert str(err.value) == message

    def test_rows_may_be_plain_tuples(self):
        s = Subspace(2, [(1, 0)])
        assert s == Subspace.span([(1, 0)])
        assert s.basis == (vec(1, 0),)
        assert Subspace(3, [(1, 0, Fraction(1, 2)), [0, 1, 0]]) == Subspace.span([(2, 0, 1), (0, 1, 0)])
        for rows, message in [([(1, 0, 0)], "basis row has wrong dimension"), ([(0, 0)], "zero row in subspace basis")]:
            with pytest.raises(ValueError) as err:
                Subspace(2, rows)
            assert str(err.value) == message

    def test_dimension_must_be_an_int(self):
        for dim in (2.0, Fraction(2)):
            with pytest.raises(TypeError, match="ambient dimension must be an int"):
                Subspace(dim, (vec(1, 0),))
            with pytest.raises(TypeError, match="ambient dimension must be an int"):
                Subspace(dim, ())

    def test_type_is_checked_before_the_value(self):
        # A str is not compared with 1 first, which would name no field.
        with pytest.raises(TypeError) as err:
            Subspace("2", [])
        assert str(err.value) == "ambient dimension must be an int, got str"

    @given(st.data())
    @settings(deadline=None)
    def test_accepts_exactly_the_reference_rref(self, data):
        # Random rows are rarely in RREF, so most draws start from a
        # reduced basis and some break it by one entry or one swap.
        dim = data.draw(st.integers(1, 5))
        row = st.lists(RREF_ENTRIES, min_size=dim, max_size=dim)
        rows = data.draw(st.lists(row, max_size=dim + 1))
        kind = data.draw(st.sampled_from(["random", "reduced", "changed", "swapped"]))
        if kind != "random":
            rows = [list(r) for r in Subspace.span(rows, dim).basis]
        if kind == "changed" and rows:
            i = data.draw(st.integers(0, len(rows) - 1))
            j = data.draw(st.integers(0, dim - 1))
            rows[i][j] = data.draw(RREF_ENTRIES.filter(lambda x: x != rows[i][j]))
        if kind == "swapped" and len(rows) > 1:
            i, j = data.draw(st.permutations(range(len(rows))))[:2]
            rows[i], rows[j] = rows[j], rows[i]
        basis = tuple([vec(*r) for r in rows])
        try:
            s = Subspace(dim, basis)
        except ValueError:
            s = None
        assert (s is not None) == reference_is_rref(rows)
        if s is not None:
            assert s.basis == basis and s == Subspace.span(basis, dim)


CABELLO_FIRST_CONTEXT = [
    Ray("r0001", (0, 0, 0, 1)),
    Ray("r0010", (0, 0, 1, 0)),
    Ray("r1100", (1, 1, 0, 0)),
    Ray("r1m00", (1, -1, 0, 0)),
]


class TestValidateContext:
    def test_first_cabello_context_is_valid(self):
        ctx = validate_context(CABELLO_FIRST_CONTEXT, 4)
        assert isinstance(ctx, Context)
        assert ctx.ray_ids == ("r0001", "r0010", "r1100", "r1m00")
        total = RMatrix.zeros(4, 4)
        for r in ctx.rays:
            total = total + projector_of(r).matrix
        assert total == RMatrix.identity(4)

    def test_wrong_cardinality(self):
        with pytest.raises(ContextError, match="3 rays, needs 4"):
            validate_context(CABELLO_FIRST_CONTEXT[:3], 4)

    def test_non_orthogonal_pair_is_named(self):
        bad = CABELLO_FIRST_CONTEXT[:3] + [Ray("r1000", (1, 0, 0, 0))]
        with pytest.raises(ContextError) as err:
            validate_context(bad, 4)
        assert "r1100" in str(err.value) and "r1000" in str(err.value)

    def test_every_violation_in_one_message(self):
        # Four rays in dimension 3, two of them coinciding and two pairs
        # not orthogonal: the count first, then the pairs in order.
        a, b, c, d = Ray("a", (1, 0, 0)), Ray("b", (2, 0, 0)), Ray("c", (1, 1, 0)), Ray("d", (0, 0, 1))
        with pytest.raises(ContextError) as err:
            Context((a, b, c, d))
        assert err.value.violations == (
            "context has 4 rays, needs 3",
            "rays a and b coincide after canonicalization",
            "rays a(1, 0, 0) and c(1, 1, 0) are not orthogonal (dot = 1)",
            "rays b(1, 0, 0) and c(1, 1, 0) are not orthogonal (dot = 1)",
        )
        assert str(err.value) == "; ".join(err.value.violations)
        # Repeated ids are reported only when nothing else is wrong.
        with pytest.raises(ContextError) as err:
            Context((Ray("a", (1, 0)), Ray("a", (1, 1))))
        assert str(err.value) == "rays a(1, 0) and a(1, 1) are not orthogonal (dot = 1)"

    def test_duplicate_after_canonicalization(self):
        bad = CABELLO_FIRST_CONTEXT[:3] + [Ray("dup", (2, 2, 0, 0))]
        with pytest.raises(ContextError, match="coincide"):
            validate_context(bad, 4)

    def test_repeated_ray_id_is_rejected(self):
        # An orthonormal basis, but ids are outcomes: two rays named "a"
        # would be one outcome to everything keyed by id.
        rays = (Ray("a", (1, 0)), Ray("a", (0, 1)))
        with pytest.raises(ValueError, match="ray ids must be distinct"):
            Context(rays)
        with pytest.raises(ValueError, match="ray ids must be distinct"):
            validate_context(rays, 2)

    @given(st.data())
    @settings(deadline=None)
    def test_integer_identity_check_matches_fraction_projector_sum(self, data):
        dim = data.draw(st.integers(1, 4))
        orthogonal = data.draw(st.booleans())
        count = dim if orthogonal else data.draw(st.integers(max(1, dim - 1), dim + 1))
        nonzero = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
        vectors = data.draw(st.lists(nonzero, min_size=count, max_size=count))
        if orthogonal:
            vectors = gram_schmidt(vectors)
            assume(vectors is not None)
        rays = [Ray(f"r{i}", v) for i, v in enumerate(vectors)]
        total = RMatrix.zeros(dim, dim)
        for r in rays:
            v = r.coords
            total = total + outer(v, v).scale(Fraction(1) / v.dot(v))
        try:
            validate_context(rays, dim)
            accepted = True
        except ContextError:
            accepted = False
        assert accepted == (total == RMatrix.identity(dim))
        try:
            Context(tuple(rays))
            built = True
        except ContextError:
            built = False
        assert built == accepted
        if orthogonal:
            assert accepted


class TestBooleanAlgebra:
    def test_sixteen_elements_for_four_atoms(self):
        ctx = validate_context(CABELLO_FIRST_CONTEXT, 4)
        algebra = boolean_algebra_of(ctx)
        assert len(algebra) == 16

    def test_matches_the_sums_of_every_subset(self):
        contexts = [c.rays for c in cabello18().contexts]
        for d in range(2, 6):
            contexts.append([Ray(f"e{i}", [int(i == j) for j in range(d)]) for i in range(d)])
        for rays in contexts:
            algebra = {p.matrix.rows for p in boolean_algebra_of(Context(tuple(rays)))}
            assert len(algebra) == 2 ** len(rays)
            assert algebra == reference_boolean_algebra([r.ints for r in rays])

    def test_contains_bottom_and_top(self):
        ctx = validate_context(CABELLO_FIRST_CONTEXT, 4)
        algebra = boolean_algebra_of(ctx)
        assert Projector.zero(4) in algebra
        assert Projector.identity(4) in algebra

    def test_distributive_inside_the_algebra(self):
        # Subspace meet distributes over join for every triple drawn from
        # the Boolean algebra of one context, although it fails in the
        # full lattice.
        ctx = validate_context(CABELLO_FIRST_CONTEXT, 4)
        ranges = [p.range() for p in boolean_algebra_of(ctx)]
        for a, b, c in itertools.product(ranges, repeat=3):
            assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
