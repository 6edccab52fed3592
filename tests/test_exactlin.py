import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kscheck.exactlin import (
    RMatrix,
    RVector,
    kernel_basis,
    nonneg_solve,
    outer,
    row_reduce,
    trace_product,
)

from helpers import brute_force_feasible, reference_nonneg_solve

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def vec(*xs):
    return RVector(tuple(xs))


@st.composite
def vectors(draw, dim=4):
    return RVector(tuple(draw(rationals) for _ in range(dim)))


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    nr = draw(st.integers(1, max_rows))
    nc = draw(st.integers(1, max_cols))
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return RMatrix(tuple(tuple(draw(entries) for _ in range(nc)) for _ in range(nr)))


class TestRationalNormalization:
    @given(rationals, rationals)
    def test_arithmetic_stays_normalized(self, a, b):
        for value in (a + b, a - b, a * b):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1
        if b != 0:
            q = a / b
            assert q.denominator > 0
            assert math.gcd(abs(q.numerator), q.denominator) == 1

    def test_zero_is_zero_over_one(self):
        z = Fraction(0, 7)
        assert (z.numerator, z.denominator) == (0, 1)


class TestDot:
    def test_orthogonal_pair_from_first_context(self):
        assert vec(1, 1, 0, 0).dot(vec(1, -1, 0, 0)) == 0

    def test_unit_self_product(self):
        assert vec(0, 0, 0, 1).dot(vec(0, 0, 0, 1)) == 1

    def test_orthogonal_pair_from_fourth_context(self):
        assert vec(1, 1, 1, 1).dot(vec(1, -1, 1, -1)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vec(1, 0).dot(vec(1, 0, 0))

    @given(vectors(), vectors())
    def test_symmetry(self, u, v):
        assert u.dot(v) == v.dot(u)

    @given(vectors(), vectors(), vectors(), rationals, rationals)
    def test_bilinearity(self, u, v, w, a, b):
        assert u.dot(v.scale(a) + w.scale(b)) == a * u.dot(v) + b * u.dot(w)


class TestRowReduce:
    def test_identity_is_fixed(self):
        eye = RMatrix.identity(4)
        rref, rank = row_reduce(eye)
        assert rref == eye and rank == 4

    def test_zero_matrix(self):
        z = RMatrix.zeros(2, 4)
        rref, rank = row_reduce(z)
        assert rref == z and rank == 0

    def test_hand_elimination(self):
        m = RMatrix(((1, 1, 0, 0), (1, -1, 0, 0)))
        rref, rank = row_reduce(m)
        assert rank == 2
        assert rref == RMatrix(((1, 0, 0, 0), (0, 1, 0, 0)))

    @given(matrices())
    @settings(deadline=None)
    def test_idempotent(self, m):
        rref, rank = row_reduce(m)
        again, rank2 = row_reduce(rref)
        assert again == rref and rank2 == rank

    @given(matrices())
    @settings(deadline=None)
    def test_rank_equals_transpose_rank(self, m):
        assert row_reduce(m)[1] == row_reduce(m.transpose())[1]


# Rank-1 projector onto (1,1,0,0), worked out by hand from v v^T / (v.v).
P1100 = RMatrix((
    (Fraction(1, 2), Fraction(1, 2), 0, 0),
    (Fraction(1, 2), Fraction(1, 2), 0, 0),
    (0, 0, 0, 0),
    (0, 0, 0, 0),
))


class TestMatrixOps:
    def test_trace_identity(self):
        assert RMatrix.identity(4).trace() == 4

    def test_projector_idempotent_under_product(self):
        assert P1100 @ P1100 == P1100

    def test_rank_one_projector_trace(self):
        assert P1100.trace() == 1

    def test_add_scale_transpose(self):
        m = RMatrix(((1, 2), (3, 4)))
        assert m + m == m.scale(2)
        assert m.transpose().transpose() == m
        assert (m - m).is_zero()

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            RMatrix.zeros(2, 3) @ RMatrix.zeros(2, 3)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            RMatrix.zeros(2, 3) + RMatrix.zeros(3, 2)

    def test_trace_requires_square(self):
        with pytest.raises(ValueError):
            RMatrix.zeros(2, 3).trace()

    def test_trace_product_matches_full_product(self):
        rng = random.Random(7)
        for _ in range(25):
            a = RMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3)))
            b = RMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3)))
            assert trace_product(a, b) == (a @ b).trace()

    def test_outer(self):
        m = outer(vec(1, 2), vec(3, 4))
        assert m == RMatrix(((3, 4), (6, 8)))


class TestKernel:
    @given(matrices(max_rows=5, max_cols=5))
    @settings(deadline=None)
    def test_kernel_vectors_are_killed(self, m):
        basis = kernel_basis(m)
        _, rank = row_reduce(m)
        assert len(basis) == m.ncols - rank
        for v in basis:
            assert m.apply(v).is_zero()


class TestNonnegSolve:
    def test_unique_solution(self):
        a = RMatrix(((1, 1), (1, -1)))
        x = nonneg_solve(a, vec(1, 0))
        assert x == vec(Fraction(1, 2), Fraction(1, 2))

    def test_infeasible_negative_target(self):
        assert nonneg_solve(RMatrix(((1, 1),)), vec(-1)) is None

    def test_infeasible_inconsistent_rows(self):
        assert nonneg_solve(RMatrix(((1, 1), (1, 1))), vec(1, 2)) is None

    def test_redundant_consistent_rows(self):
        x = nonneg_solve(RMatrix(((1, 1), (2, 2))), vec(1, 2))
        assert x is not None
        assert x[0] + x[1] == 1 and x[0] >= 0 and x[1] >= 0

    def test_zero_system(self):
        assert nonneg_solve(RMatrix.zeros(2, 3), vec(0, 0)) == vec(0, 0, 0)
        assert nonneg_solve(RMatrix.zeros(2, 3), vec(0, 1)) is None

    def test_rhs_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nonneg_solve(RMatrix.zeros(2, 3), vec(0, 0, 0))

    def test_random_feasible_systems_are_solved(self):
        rng = random.Random(42)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 6)
            a = RMatrix(tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)))
            x0 = RVector(tuple(Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)))
            b = a.apply(x0)
            x = nonneg_solve(a, b)
            assert x is not None, "a feasible system must be solved"
            assert a.apply(x) == b
            assert all(c >= 0 for c in x)


@st.composite
def lp_systems(draw):
    """A system a @ x = b with m <= 5 rows and n <= 7 columns.

    Entries are rationals with zeros over-weighted; some rows are all
    zero and some repeat an earlier row times a rational factor, with the
    right-hand side kept consistent or not. Half the right-hand sides are
    a @ x0 for some x0 >= 0, so both verdicts are common; the others may
    be negative.
    """
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=6))
    rows = []
    for i in range(m):
        kind = draw(st.sampled_from(["random", "random", "zero", "multiple"])) if i else "random"
        if kind == "zero":
            rows.append([Fraction(0)] * n)
        elif kind == "multiple":
            src = draw(st.integers(0, i - 1))
            f = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
            rows.append([f * x for x in rows[src]])
        else:
            rows.append([draw(entry) for _ in range(n)])
    if draw(st.booleans()):
        x0 = [draw(st.fractions(min_value=0, max_value=4, max_denominator=4)) for _ in range(n)]
        b = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
        if draw(st.booleans()):
            b[draw(st.integers(0, m - 1))] += draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    else:
        b = [draw(entry) for _ in range(m)]
    return rows, b


# Primes near 10^4, so the lcm of a right-hand side's denominators runs to
# tens of digits, as the model LP's targets' can.
LARGE_PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079)


@st.composite
def model_lps(draw):
    """A system shaped like ``noncontextual_model``'s LP.

    Up to 5 rows of 0/1 entries, some repeating an earlier row, then the
    all-ones row, over up to 8 columns. The right-hand side is either
    a @ x0 for weights x0 >= 0 summing to 1 over large coprime
    denominators, or targets in [0, 1] over distinct large primes with
    1 for the all-ones row.
    """
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    rows = []
    for i in range(m):
        if i and draw(st.booleans()):
            rows.append(list(rows[draw(st.integers(0, i - 1))]))
        else:
            rows.append([draw(st.integers(0, 1)) for _ in range(n)])
    rows.append([1] * n)
    if draw(st.booleans()):
        raw = [Fraction(draw(st.integers(0, 50)), draw(st.sampled_from(LARGE_PRIMES))) for _ in range(n)]
        if not any(raw):
            raw[0] = Fraction(1)
        total = sum(raw)
        x0 = [x / total for x in raw]
        b = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
    else:
        primes = draw(st.permutations(LARGE_PRIMES))[:m]
        b = [Fraction(draw(st.integers(0, p)), p) for p in primes] + [Fraction(1)]
    return rows, b


def sylvester(order):
    """The Sylvester +-1 Hadamard matrix of a power-of-two order."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@st.composite
def hadamard_lps(draw):
    """A system whose tableau entries approach Hadamard's bound.

    Either the rows of a Sylvester matrix of order 2, 4 or 8, each negated
    or not, over its columns drawn with repeats: a basis of distinct
    columns has the largest determinant their norms allow, and one column
    repeated gives a tall, thin system. Or up to 4 rows of integers up to
    10**6 in size. The right-hand side is a @ x0 for integer weights
    x0 >= 0, or integers of either sign.
    """
    if draw(st.booleans()):
        order = draw(st.sampled_from([2, 4, 8]))
        picks = draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=2 * order))
        signs = [draw(st.sampled_from([1, -1])) for _ in range(order)]
        rows = [[sign * row[j] for j in picks] for sign, row in zip(signs, sylvester(order))]
        size = order
    else:
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        size = 10**6
        rows = [[draw(st.integers(-size, size)) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x0 = [draw(st.integers(0, 3)) for _ in rows[0]]
        b = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        b = [draw(st.integers(-size, size)) for _ in rows]
    return rows, b


def assert_same_as_reference(rows, b):
    x = nonneg_solve(RMatrix(tuple(map(tuple, rows))), RVector(tuple(b)))
    ref = reference_nonneg_solve(rows, b)
    if ref is None:
        assert x is None
    else:
        assert x is not None and list(x.entries) == ref


class TestNonnegSolveMatchesFractionSimplex:
    """The integer tableau pivots exactly like the Fraction one it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(lp_systems(), model_lps()))
    def test_same_vertex_or_same_none(self, system):
        assert_same_as_reference(*system)

    @settings(max_examples=200, deadline=None)
    @given(hadamard_lps())
    def test_same_vertex_near_the_hadamard_bound(self, system):
        assert_same_as_reference(*system)

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_full_sylvester_basis(self, order):
        """Every column of a Sylvester matrix enters, so the last common
        denominator is its determinant, order**(order / 2), which is
        Hadamard's bound."""
        h = sylvester(order)
        b = [sum(row) for row in h]
        x = nonneg_solve(RMatrix(tuple(map(tuple, h))), RVector(tuple(b)))
        assert x == RVector((1,) * order)
        assert reference_nonneg_solve(h, b) == [1] * order

    @pytest.mark.parametrize(
        "rows, b, expected",
        [
            # Feasible. The reference reaches phase-one objective 0 after
            # two pivots, with row 2's artificial still basic at 0. Every
            # structural reduced cost is then >= 0, and Bland's rule enters
            # row 0's artificial in a degenerate pivot. The integer tableau
            # stores no artificial column and stops before that pivot, so
            # this pins that stopping there gives the same vertex.
            ([[-1, -1], [1, 2], [0, 2]], [-1, 1, 0], [1, 0]),
            # Infeasible. Every structural reduced cost is >= 0 while the
            # objective is still positive. The reference goes on to enter
            # row 0's artificial and ends with two artificials basic; the
            # integer tableau stops earlier and must also answer None.
            ([[-1, -1], [-1, 0], [1, 2]], [-1, 0, 1], None),
        ],
    )
    def test_same_answer_where_the_reference_enters_an_artificial(self, rows, b, expected):
        m, n = len(rows), len(rows[0])
        pivots = []
        assert reference_nonneg_solve(rows, b, pivots) == expected
        assert any(enter >= n for _, enter in pivots), "an artificial must enter"
        basis = list(range(n, n + m))
        for row, enter in pivots:
            basis[row] = enter
        if expected is None:
            assert sum(var >= n for var in basis) == 2
        x = nonneg_solve(RMatrix(tuple(map(tuple, rows))), RVector(tuple(b)))
        assert x is None if expected is None else list(x.entries) == expected

    @settings(max_examples=60, deadline=None)
    @given(lp_systems())
    def test_none_exactly_when_brute_force_finds_no_solution(self, system):
        rows, b = system
        x = nonneg_solve(RMatrix(tuple(map(tuple, rows))), RVector(tuple(b)))
        assert (x is None) == (not brute_force_feasible(rows, b))
        if x is not None:
            assert all(v >= 0 for v in x)
            assert RMatrix(tuple(map(tuple, rows))).apply(x) == RVector(tuple(b))
