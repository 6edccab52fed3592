"""The lattice of subspaces and its projectors, over ``Fraction``.

The rank-1 projectors that rays generate, subspaces with exact meet /
join / orthocomplement, and the Boolean algebra a context generates.
Subspaces are stored as their reduced row echelon basis, so subspace
equality is plain structural equality and no tolerance parameter exists
anywhere.

Rays and contexts, which this module builds on, are integer values in
:mod:`kscheck.qlogic`; everything here is a :mod:`kscheck.exactlin`
matrix or vector. Only the commands and calls that need the lattice load
this module, and with it ``exactlin`` and :mod:`fractions`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .exactlin import RMatrix, RVector, _as_vector, kernel_basis, row_reduce
from .frozen import _Frozen
from .qlogic import _canonical_ints, _dot

if TYPE_CHECKING:
    from .qlogic import Context, Coords, Ray


def canonical_ray_coords(coords: Coords) -> RVector:
    """Canonical representative of the ray through ``coords``.

    Clears denominators, divides by the gcd and flips the sign so the
    first nonzero entry is positive. Proportional inputs map to the same
    output; the zero vector is rejected.
    """
    return RVector(_canonical_ints(coords))


class Projector(_Frozen):
    """Symmetric idempotent matrix.

    The constructor checks symmetry and idempotence, the latter with a
    full ``m @ m``. :meth:`zero`, :meth:`identity`, :meth:`complement`,
    :func:`projector_of` and :func:`boolean_algebra_of`, whose matrices
    are projectors by construction, skip those checks.
    """

    matrix: RMatrix

    def __init__(self, matrix: RMatrix) -> None:
        if not matrix.is_square():
            raise ValueError("projector matrix must be square")
        if not matrix.is_symmetric():
            raise ValueError("projector matrix must be symmetric")
        if matrix @ matrix != matrix:
            raise ValueError("projector matrix must be idempotent")
        self._store(matrix)

    @classmethod
    def zero(cls, dim: int) -> "Projector":
        return cls._trusted(RMatrix.zeros(dim, dim))

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls._trusted(RMatrix.identity(dim))

    @property
    def dim(self) -> int:
        return self.matrix.nrows

    def trace(self) -> Fraction:
        return self.matrix.trace()

    def __add__(self, other: "Projector") -> "Projector":
        # Valid only for orthogonal summands; the constructor re-checks.
        return Projector(self.matrix + other.matrix)

    def complement(self) -> "Projector":
        # Symmetric, and (I - P)^2 = I - 2P + P^2 = I - P.
        return Projector._trusted(RMatrix.identity(self.dim) - self.matrix)

    def range(self) -> "Subspace":
        return Subspace.span(self.matrix.row_vectors(), self.dim)


def projector_of(ray: Ray) -> Projector:
    """Rank-1 projector v v^T / (v . v) onto the ray.

    Idempotent by construction, so the constructor's ``m @ m`` check is
    skipped; only matrices handed to :class:`Projector` directly are
    checked.
    """
    v = ray.ints
    n = _dot(v, v)
    rows = tuple([tuple([Fraction(a * b, n) for b in v]) for a in v])
    return Projector._trusted(RMatrix(rows))


class Subspace(_Frozen):
    """Linear subspace, canonically represented by its RREF basis.

    ``basis`` holds the nonzero rows of the reduced row echelon form of
    any spanning set, so two equal subspaces are structurally equal. The
    zero subspace has an empty basis. The constructor checks that form;
    :meth:`span`, :meth:`full` and :func:`meet`, whose bases have it by
    construction, skip the check.
    """

    ambient_dim: int
    basis: tuple[RVector, ...]

    def __init__(self, ambient_dim: int, basis: Iterable[Coords]) -> None:
        if not isinstance(ambient_dim, int):
            raise TypeError(f"ambient dimension must be an int, got {type(ambient_dim).__name__}")
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        basis = tuple([_as_vector(row) for row in basis])
        for row in basis:
            if row.dim != ambient_dim:
                raise ValueError("basis row has wrong dimension")
            if row.is_zero():
                raise ValueError("zero row in subspace basis")
        # The RREF of a matrix is unique, so nonzero rows are in RREF
        # exactly when row_reduce gives them back unchanged.
        if basis and row_reduce(RMatrix(basis))[0].row_vectors() != basis:
            raise ValueError("subspace basis is not in reduced row echelon form")
        self._store(ambient_dim, basis)

    @classmethod
    def span(cls, vectors: Sequence[Coords], ambient_dim: int | None = None) -> "Subspace":
        vecs = [_as_vector(v) for v in vectors]
        if not vecs:
            if ambient_dim is None:
                raise ValueError("ambient dimension required for an empty span")
            return cls(ambient_dim, ())
        dim = vecs[0].dim
        if ambient_dim is not None and ambient_dim != dim:
            raise ValueError(f"vectors have dim {dim}, expected {ambient_dim}")
        rref, rank = row_reduce(RMatrix(vecs))
        # row_reduce returns the unique RREF, whose first rank rows are
        # the nonzero ones: the constructor's RREF check cannot fail.
        return cls._trusted(dim, rref.row_vectors()[:rank])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        # The identity's rows are already the RREF of the whole space, and
        # RMatrix.identity rejects an ambient dimension below 1.
        return cls._trusted(ambient_dim, RMatrix.identity(ambient_dim).row_vectors())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, v: Coords) -> bool:
        """Exact membership test via reduction against the RREF basis."""
        x = list(_as_vector(v))
        if len(x) != self.ambient_dim:
            raise ValueError("vector has wrong dimension")
        for row in self.basis:
            f = x[next(j for j, y in enumerate(row) if y)]
            if f:
                x = [a - f * b for a, b in zip(x, row)]
        return not any(x)

    def leq(self, other: "Subspace") -> bool:
        """Subspace inclusion self <= other."""
        return all(other.contains(row) for row in self.basis)


def join(s: Subspace, t: Subspace) -> Subspace:
    """Smallest subspace containing both: the span of the stacked bases."""
    if s.ambient_dim != t.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.span(list(s.basis) + list(t.basis), s.ambient_dim)


def ortho(s: Subspace) -> Subspace:
    """Orthogonal complement, computed as the kernel of the basis matrix."""
    if s.is_zero():
        return Subspace.full(s.ambient_dim)
    return Subspace.span(kernel_basis(RMatrix(s.basis)), s.ambient_dim)


def meet(s: Subspace, t: Subspace) -> Subspace:
    """Intersection of the two row spaces, by Zassenhaus's algorithm,
    which takes no complement: De Morgan's law stays an independent test.

    The rows (w, 0) for w in basis(t) and (u, u) for u in basis(s) span
    the vectors (a + b, a) with a in s and b in t, whose first half is 0
    exactly when a = -b lies in both. No reduced row with its pivot in the
    first half enters such a vector, so the rows with first half 0 hold
    the intersection's RREF basis in their second halves.
    """
    if s.ambient_dim != t.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = s.ambient_dim
    if s.is_zero() or t.is_zero():
        return Subspace.zero(n)
    # t's rows first, as pivoting on a row (w, 0) changes no second half.
    rows = [w.entries + (0,) * n for w in t.basis] + [u.entries * 2 for u in s.basis]
    rref, rank = row_reduce(RMatrix(rows))
    basis = tuple([RVector(row[n:]) for row in rref.rows[:rank] if not any(row[:n])])
    # Nonzero rows in RREF, as above: the constructor's check cannot fail.
    return Subspace._trusted(n, basis)


def boolean_algebra_of(context: Context) -> frozenset[Projector]:
    """All 2^d sums of atomic projectors of the context, one per subset.

    This is the Boolean algebra the context generates inside the projector
    lattice; it always contains the zero projector and the identity. The
    atoms of a :class:`Context` are mutually orthogonal, so every sum is a
    projector by construction and skips the constructor's checks.
    """
    sums = [RMatrix.zeros(context.dim, context.dim)]
    for r in context.rays:
        atom = projector_of(r).matrix
        sums += [total + atom for total in sums]
    return frozenset([Projector._trusted(total) for total in sums])
