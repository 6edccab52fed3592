"""Two-particle states and exchange symmetry.

A two-particle state over a d-dimensional single-particle space is a d x d
amplitude matrix: entry (i, j) is the coefficient of the product basis
vector |i> tensor |j>. Bosonic and fermionic combinations of two
single-particle vectors are built by (anti)symmetrizing the product.

States are kept unnormalized with an exact cached squared norm, because
the usual 1/sqrt(2) factor is irrational while every physically meaningful
quantity here (exchange parity, joint probabilities) only ever divides by
the squared norm. Single-particle vectors are read by
:func:`kscheck.exactlin._as_vector`, so ``symm`` loads the Fraction code
but not the lattice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Union

from .exactlin import RMatrix, RVector, Scalar, _as_vector, outer, trace_product
from .frozen import _Frozen

if TYPE_CHECKING:
    from .lattice import Projector

Vec = Union[RVector, Iterable[Scalar]]


class TwoParticleState(_Frozen):
    """Unnormalized two-particle state as a square amplitude matrix."""

    amplitudes: RMatrix

    def __init__(self, amplitudes: RMatrix) -> None:
        if not amplitudes.is_square():
            raise ValueError("amplitude matrix must be square")
        if amplitudes.is_zero():
            raise ValueError("the zero state is not a state")
        self._store(amplitudes)

    @property
    def dim_single(self) -> int:
        return self.amplitudes.nrows

    @cached_property
    def norm_squared(self) -> Fraction:
        return sum((x * x for row in self.amplitudes.rows for x in row), Fraction(0))

    def __neg__(self) -> "TwoParticleState":
        return TwoParticleState(-self.amplitudes)


def product_state(a: Vec, b: Vec) -> TwoParticleState:
    """Plain tensor product |a> tensor |b>."""
    return TwoParticleState(outer(_as_vector(a), _as_vector(b)))


def symmetrize(a: Vec, b: Vec, sign: int) -> TwoParticleState:
    """Bosonic (+1) or fermionic (-1) combination of two vectors.

    Builds |a> tensor |b> + sign * |b> tensor |a>. Antisymmetrizing two
    proportional vectors annihilates the state, which is rejected: that is
    exclusion showing up at the level of the algebra.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    u, v = _as_vector(a), _as_vector(b)
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    if u.is_zero() or v.is_zero():
        raise ValueError("factors must be nonzero")
    amplitudes = outer(u, v) + outer(v, u).scale(sign)
    if amplitudes.is_zero():
        raise ValueError("antisymmetrization of proportional vectors gives the zero state")
    return TwoParticleState(amplitudes)


def swap(s: TwoParticleState) -> TwoParticleState:
    """Exchange the two particles: transpose the amplitude matrix."""
    return TwoParticleState(s.amplitudes.transpose())


def exchange_parity(s: TwoParticleState) -> int | None:
    """+1 if the state is symmetric under exchange, -1 if antisymmetric,
    None if neither."""
    t = s.amplitudes.transpose()
    if t == s.amplitudes:
        return 1
    if t == -s.amplitudes:
        return -1
    return None


def pair_probability(s: TwoParticleState, p: Projector) -> Fraction:
    """Probability that both particles pass the same single-particle test.

    Computes <psi| (p tensor p) |psi> / norm_squared exactly, so the
    missing normalization of the stored amplitudes cancels.
    """
    if p.dim != s.dim_single:
        raise ValueError(f"projector dimension {p.dim} does not match state ({s.dim_single})")
    a = s.amplitudes
    image = p.matrix @ a @ p.matrix  # (p tensor p) applied to the amplitude matrix
    # The overlap, the sum of a[i][j] * image[i][j], is trace(a^T image).
    return trace_product(a.transpose(), image) / s.norm_squared
