"""Exact rational linear algebra.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), so every
question asked in this package is decided exactly. There is no floating
point and no tolerance anywhere: equality of vectors, matrices and the
subspaces built on top of them is literal structural equality. The
implementation favors clarity over asymptotics: rays and contexts, which
reach ambient dimension 31 and more, are handled in integers by
:mod:`kscheck.qlogic`, and these Fraction matrices serve states
(:mod:`kscheck.probability`), projectors and subspaces
(:mod:`kscheck.lattice`), where dimensions stay small. The commands that
work on integers alone never load this module or :mod:`fractions`. The
simplex of :func:`nonneg_solve` takes Fraction input but pivots
fraction-free, on an integer tableau with the matrix and the right-hand
side each cleared of its own denominators. Each tableau row is packed
into one int, a slot of bits per column, so a pivot updates a row with
one big-integer operation.

Vectors and matrices are immutable and hashable.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .frozen import _Frozen

Rational = Fraction

Scalar = Union[Fraction, int]


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


class RVector(_Frozen):
    """Immutable vector with exact rational entries."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Scalar]) -> None:
        # Built from a list, not a generator. tuple(generator) takes a
        # ten-slot tuple and shrinks it, so each short-lived vector or row
        # would be freed onto the free list of a different size than it was
        # taken from; that list then grows to its cap of 2000 tuples and
        # stays there until a full garbage collection. The same holds for
        # the other tuples built from lists on the state and model paths.
        ent = tuple([_frac(x) for x in entries])
        if not ent:
            raise ValueError("vector must have at least one entry")
        self._store(ent)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def dot(self, other: "RVector") -> Fraction:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return sum((x * y for x, y in zip(self.entries, other.entries)), Fraction(0))

    def scale(self, c: Scalar) -> "RVector":
        f = _frac(c)
        return RVector(tuple([f * x for x in self.entries]))

    def __add__(self, other: "RVector") -> "RVector":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return RVector(tuple([x + y for x, y in zip(self.entries, other.entries)]))

    def __sub__(self, other: "RVector") -> "RVector":
        return self + (-other)

    def __neg__(self) -> "RVector":
        return RVector(tuple([-x for x in self.entries]))

    def __str__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.entries) + ")"


def _as_vector(coords: Union[RVector, Iterable[Scalar]]) -> RVector:
    return coords if isinstance(coords, RVector) else RVector(tuple(coords))


class RMatrix(_Frozen):
    """Immutable rectangular matrix with exact rational entries."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Scalar]]) -> None:
        rows = tuple([tuple([_frac(x) for x in row]) for row in rows])
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix rows must all have the same length")
        self._store(rows)

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RMatrix":
        return cls(tuple((Fraction(0),) * ncols for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        return self.rows[i][j]

    def row_vectors(self) -> tuple[RVector, ...]:
        return tuple(RVector(r) for r in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        # A matrix that is not square differs from its transpose in shape.
        return self.transpose() == self

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def transpose(self) -> "RMatrix":
        return RMatrix(tuple([tuple([row[j] for row in self.rows]) for j in range(self.ncols)]))

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace requires a square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def scale(self, c: Scalar) -> "RMatrix":
        f = _frac(c)
        return RMatrix(tuple([tuple([f * x for x in row]) for row in self.rows]))

    def apply(self, v: RVector) -> RVector:
        """Matrix-vector product."""
        if v.dim != self.ncols:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} times vector of dim {v.dim}")
        return RVector(tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in self.rows))

    def __add__(self, other: "RMatrix") -> "RMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return RMatrix(tuple([tuple([a + b for a, b in zip(r1, r2)]) for r1, r2 in zip(self.rows, other.rows)]))

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        return self + other.scale(-1)

    def __neg__(self) -> "RMatrix":
        return self.scale(-1)

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch in matrix product: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        cols = other.transpose().rows
        return RMatrix(tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self.rows]))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.rows) + "]"


def outer(u: RVector, v: RVector) -> RMatrix:
    """Outer product u v^T."""
    return RMatrix(tuple([tuple([a * b for b in v]) for a in u]))


def trace_product(a: RMatrix, b: RMatrix) -> Fraction:
    """trace(a @ b) without forming the product."""
    if a.ncols != b.nrows or a.nrows != b.ncols:
        raise ValueError("shape mismatch in trace_product")
    return sum(
        (a.rows[i][j] * b.rows[j][i] for i in range(a.nrows) for j in range(a.ncols)),
        Fraction(0),
    )


def row_reduce(m: RMatrix) -> tuple[RMatrix, int]:
    """Reduced row echelon form and rank, computed exactly.

    Pivot rule: columns left to right, and within a column the first
    unprocessed row with a nonzero entry. The output is therefore the
    unique RREF of the row space, with zero rows collected at the bottom.
    """
    rows = [list(r) for r in m.rows]
    nr, nc = len(rows), len(rows[0])
    piv_row = 0
    for col in range(nc):
        src = next((r for r in range(piv_row, nr) if rows[r][col] != 0), None)
        if src is None:
            continue
        rows[piv_row], rows[src] = rows[src], rows[piv_row]
        pivot = rows[piv_row][col]
        # Entries are Fractions (RMatrix converts them), so a pivot of 1
        # leaves the row as dividing it would.
        if pivot != 1:
            rows[piv_row] = [x / pivot for x in rows[piv_row]]
        for r in range(nr):
            if r != piv_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b if b else a for a, b in zip(rows[r], rows[piv_row])]
        piv_row += 1
        if piv_row == nr:
            break
    return RMatrix(tuple(tuple(r) for r in rows)), piv_row


def kernel_basis(m: RMatrix) -> tuple[RVector, ...]:
    """Basis of the null space {x : m @ x = 0}, one vector per free column."""
    rref, rank = row_reduce(m)
    rows = rref.rows[:rank]
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    basis = []
    for free in [j for j in range(m.ncols) if j not in pivots]:
        v = [Fraction(1 if j == free else 0) for j in range(m.ncols)]
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        basis.append(RVector(v))
    return tuple(basis)


def nonneg_solve(a: RMatrix, b: RVector) -> RVector | None:
    """Find x >= 0 with a @ x = b, or None if no such x exists.

    Phase-one simplex with Bland's pivoting rule, so termination is
    guaranteed and the feasibility verdict is a theorem, not a numerical
    judgement. The tableau is pivoted in integers on packed rows, each row
    one int with a slot per column, so a pivot updates a row with one
    big-integer operation (:func:`_int_nonneg_solve`, which clears ``b``'s
    denominators itself); every division is exact. ``a`` is scaled by the
    lcm ``alpha`` of its denominators, so the system solved is
    ``a' y = b`` with ``a' = alpha a``, and ``x = alpha y``. That
    substitution scales every structural variable by ``1 / alpha`` and
    leaves every artificial as it is: structural reduced costs are
    multiplied by ``alpha``, artificial ones are unchanged, and each ratio
    of the ratio test is multiplied by the positive scale of the entering
    variable. No sign, ratio order or tie moves, so the pivots are Bland's
    pivots on the rational tableau, and ``x`` is the vertex the same
    simplex over ``Fraction`` entries returns.
    """
    m, n = a.nrows, a.ncols
    if b.dim != m:
        raise ValueError(f"right-hand side has dim {b.dim}, expected {m}")
    alpha = math.lcm(*(x.denominator for x in itertools.chain(*a.rows)))
    rows = [[x.numerator * (alpha // x.denominator) for x in row] for row in a.rows]
    support = _int_nonneg_solve(rows, b.entries)
    if support is None:
        return None
    return RVector(tuple(support[j] * alpha if j in support else 0 for j in range(n)))


def _int_nonneg_solve(a: list[list[int]], b: Sequence[Fraction]) -> dict[int, Fraction] | None:
    """Nonzero entries of the vertex x >= 0 with a @ x = b, or None.

    The phase-one Bland simplex of :func:`nonneg_solve` on an integer
    matrix ``a`` and a rational right-hand side ``b``. It is the one place
    that clears a right-hand side's denominators: ``b`` is scaled by the
    lcm ``beta`` of its denominators, ``a y = beta b`` is solved, and the
    vertex is returned as ``x = y / beta``. Scaling ``b`` by ``beta > 0``
    scales every variable, structural and artificial, by ``beta``: every
    ratio of the ratio test is multiplied by ``beta`` and no reduced cost
    changes, so no pivot moves.

    The integer system is pivoted fraction-free (Edmonds; Bareiss 1968).
    The tableau holds integers ``T`` over one common denominator
    ``d > 0``; the rational tableau is ``T / d``. Pivoting on ``(r, e)``
    with ``p = T[r][e] > 0`` keeps row ``r`` and maps every other row
    ``i``, the objective included, to ``(p * T[i] - T[i][e] * T[r]) // d``,
    then sets ``d = p``. The division is exact because each entry is a
    minor of the initial tableau. Signs are those of the rational tableau
    since ``d > 0``, and the ratio test compares ``rhs[i] / T[i][e]`` by
    cross-multiplication, so Bland's choices are unchanged.

    Each row, the objective included, is stored packed: one int holding
    ``T[i][j]`` as the signed slot of ``w`` bits at bit ``j * w``, that
    is the row's entries as the digits of a number in base ``2**w``. The
    right-hand sides stay a list of ints beside the rows. A pivot updates
    a packed row with one big-integer expression, ``row - f * prow`` when
    ``p == d == 1`` (the same integers without the product by ``p`` and
    the division) and ``(p * row - f * prow) // d`` otherwise. Both are
    exact at any width: a packed row is the sum of its entries times
    powers of ``2**w``, the update is linear in the rows, and Bareiss makes
    every slot of the numerator a multiple of ``d``, so the numerator is
    ``d`` times the packed new row. A slot of the numerator may overflow
    into its neighbours; only stored entries are read, so only they must
    fit their slots.

    The width is derived from ``a``. Every stored structural entry, and
    every ``d``, is +- a minor of order at most ``m`` of ``a`` with some
    rows negated (a minor of ``[a | I]`` reduces to one of ``a`` along its
    identity columns). By Hadamard's inequality such a minor is at most
    the product of its columns' norms, and so at most ``H``, where ``H**2``
    is the product of the ``m`` largest squared column norms, each taken
    as at least 1: a nonzero integer column has norm at least 1, and a
    minor with a zero column is 0. The objective entry of column ``j`` is
    ``d`` times the reduced cost ``-sum (B^-1 a)[i][j]`` over the rows
    ``i`` whose artificial is basic, so it is minus the sum of at most
    ``m`` stored entries, at most ``m * H`` in size. With ``hadamard`` the
    ceiling of ``H``, exact by ``math.isqrt``, the width
    ``w = (m * hadamard).bit_length() + 1`` gives every stored entry
    ``|x| < 2**(w - 1)``. ``biased`` holds ``half = 2**(w - 1)`` in every
    slot, so ``row + biased`` has the nonnegative base-``2**w`` digits
    ``x + half``, with no borrow between slots. A slot is read as its
    digit minus ``half``, and a digit's top bit is 0 exactly when the
    entry is negative. So Bland's entering column, the lowest with a
    negative reduced cost, is the lowest slot of the objective row plus
    ``biased`` whose bit in ``highs`` is clear.

    No artificial column is stored: the tableau holds the ``n``
    structural columns and the right-hand side, and the artificial of
    row ``i`` keeps only its index ``n + i`` in ``basis``, for the ratio
    test's tie-break. A column's update reads only itself and the pivot
    column, so dropping columns changes no other entry. The vertex is the
    one of the method that keeps them:

    * Bland's rule enters the lowest index with a negative reduced cost,
      and artificials come after every structural column. So an
      artificial could enter only once every structural reduced cost is
      >= 0, and until then both methods make the same pivots.
    * At that point the basis is optimal for the phase-one LP restricted
      to the structural columns and the artificials still basic.
    * If its objective is 0, ``x`` solves ``a @ x = b``, and 0 is also
      the optimum of the full phase-one LP. Each later pivot of the full
      method lowers the objective by its step times a negative reduced
      cost, so every step is 0: the pivots are degenerate, the basic
      solution does not move, and both methods return the same ``x``.
    * If it is > 0, no ``x >= 0`` solves ``a @ x = b``, since such an
      ``x`` with the basic artificials at 0 would reach objective 0 in
      the restricted LP. Both methods return None.
    """
    m, n = len(a), len(a[0])
    squares = sorted([sum(map(mul, col, col)) for col in zip(*a)])[-m:]
    hadamard = math.isqrt(math.prod([max(x, 1) for x in squares]) - 1) + 1
    w = (m * hadamard).bit_length() + 1
    mask, half = (1 << w) - 1, 1 << w - 1
    ones = ((1 << w * n) - 1) // mask
    highs = ones << w - 1
    biased = half * ones

    beta = math.lcm(*[x.denominator for x in b])
    # Rows with negative right-hand side are negated so the artificial
    # basis starts feasible.
    tableau, rhs = [], []
    for row, target in zip(a, b):
        r = target.numerator * (beta // target.denominator)
        packed = 0
        for x in reversed(row):
            packed = (packed << w) + x
        tableau.append(packed if r >= 0 else -packed)
        rhs.append(abs(r))
    basis = [n + i for i in range(m)]

    # Objective: minimize the sum of artificials. Under the artificial
    # basis the reduced cost of column j is -sum of its column, and the
    # objective's right-hand side carries minus the current objective
    # value. It is the last row and is updated with the others; its entry
    # in the entering column is negative, so the ratio test skips it.
    tableau.append(-sum(tableau))
    rhs.append(-sum(rhs))
    d = 1

    while True:
        negative = highs & ~(tableau[m] + biased)
        if not negative:
            break
        enter = (negative & -negative).bit_length() // w - 1
        shift = enter * w
        col = [(row + biased >> shift & mask) - half for row in tableau]
        leave = -1
        for i, coef in enumerate(col):
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                # Compare ratios rhs / coef of rows i and leave; both
                # coefficients are positive.
                mine = rhs[i] * col[leave]
                best = rhs[leave] * coef
                if mine < best or (mine == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # Cannot happen: the phase-one objective is bounded below by 0.
            raise RuntimeError("unbounded phase-one objective")
        prow, prhs, p = tableau[leave], rhs[leave], col[leave]
        col[leave] = 0
        if p == d == 1:
            # The same integers without the product by p and the division.
            for i, f in enumerate(col):
                if f:
                    tableau[i] -= f * prow
                    rhs[i] -= f * prhs
        else:
            for i, f in enumerate(col):
                if f:
                    tableau[i] = (p * tableau[i] - f * prow) // d
                    rhs[i] = (p * rhs[i] - f * prhs) // d
                elif p != d and i != leave:
                    tableau[i] = p * tableau[i] // d
                    rhs[i] = p * rhs[i] // d
        d = p
        basis[leave] = enter

    if rhs[m] != 0:
        return None
    return {var: Fraction(rhs[i], d * beta) for i, var in enumerate(basis) if var < n and rhs[i] != 0}
