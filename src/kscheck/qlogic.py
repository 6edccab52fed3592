"""Rays and measurement contexts, in integers.

This module carries the integer side of the toolkit: one-dimensional rays
in canonical integer form, and contexts: orthogonal bases of rays, whose
projectors resolve the identity. Only the :class:`Context` constructor
decides it; everything built on a context relies on that.

Two rays with proportional coordinate vectors canonicalize to the same
coordinates, which is exactly the identification that lets a ray keep one
truth value across every context it appears in. The rank-1 projectors
the rays generate, and the subspace lattice, are ``Fraction`` matrices in
:mod:`kscheck.lattice`.

Nothing here loads :mod:`kscheck.exactlin` or :mod:`fractions` at import
time, so the commands that work on integers alone (``check``, ``color``,
``parity``, ``graph``) never compile them. Only coordinates that are not
all ``int`` reach ``exactlin._frac``, and only :attr:`Ray.coords` builds
an ``RVector``.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .frozen import _Frozen

if TYPE_CHECKING:
    from typing import Iterable, Union

    from .exactlin import RVector, Scalar

    Coords = Union[RVector, Iterable[Scalar]]


def _canonical_ints(coords: Coords) -> tuple[int, ...]:
    """Canonical integer coordinates of the ray through ``coords``.

    Entries that are all exactly ``int`` are their own integer form. When
    their gcd is 1, as it is for most rays written by hand, the result is
    the tuple itself or, when its first nonzero entry is negative, its
    negation: the same ints the division by the signed gcd, here 1 or -1,
    would give, without dividing. Bools, other ``int`` subclasses and
    ``Fraction`` entries go through ``exactlin._frac``, whose denominators
    are cleared into plain ints; it rejects any other type.
    """
    entries = tuple(coords)
    if not entries:
        raise ValueError("vector must have at least one entry")
    if all([type(x) is int for x in entries]):
        ints = entries
    else:
        # Imported here, so that int coordinates never load it. Of the
        # import forms, this absolute one costs least per call.
        import kscheck.exactlin as exactlin

        fracs = [exactlin._frac(x) for x in entries]
        scale = lcm(*[x.denominator for x in fracs])
        ints = tuple([x.numerator * (scale // x.denominator) for x in fracs])
    g = gcd(*ints)
    if g == 0:
        raise ValueError("the zero vector does not span a ray")
    for first in ints:
        if first:
            break
    if g == 1:
        return ints if first > 0 else tuple([-x for x in ints])
    if first < 0:
        g = -g
    return tuple([x // g for x in ints])


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


class Ray(_Frozen):
    """A labeled ray, stored as its canonical integer coordinates.

    The constructor canonicalizes, so ``Ray("a", (2, 2, 0, 0))`` and
    ``Ray("a", (-1, -1, 0, 0))`` are the same object value-wise. The
    ``int`` tuple ``ints`` is the one stored form: equality, hashing,
    merging and orthogonality all work on it, and ``coords`` presents it
    as an :class:`RVector`.
    """

    id: str
    ints: tuple[int, ...]

    def __init__(self, id: str, coords: Coords) -> None:
        if type(id) is not str:
            raise TypeError(f"ray id must be a str, got {type(id).__name__}")
        self._store(id, _canonical_ints(coords))

    @property
    def coords(self) -> RVector:
        import kscheck.exactlin as exactlin

        return exactlin.RVector(self.ints)

    @property
    def dim(self) -> int:
        return len(self.ints)

    def is_orthogonal_to(self, other: "Ray") -> bool:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return _dot(self.ints, other.ints) == 0

    def __str__(self) -> str:
        # The text of str(self.coords), without building it.
        return f"{self.id}({', '.join(map(str, self.ints))})"


class ContextError(ValueError):
    """Raised when a ray family fails the resolution-of-identity checks."""

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


def _dimension_error(rays: tuple[Ray, ...], dim: int) -> ContextError:
    wrong = [r for r in rays if r.dim != dim]
    return ContextError([f"ray {r.id} has dimension {r.dim}, expected {dim}" for r in wrong])


class Context(_Frozen):
    """Complete measurement context: an orthogonal basis of rays.

    The constructor is the one place that decides that rays form an
    orthogonal basis, so every ``Context`` is one. It raises
    :class:`ContextError`, in this order: on rays of another dimension than
    the first ray's d; on every violation of "d rays, none coinciding,
    integer dot product 0 pairwise"; on repeated ids, which are outcomes.

    Each pair costs one dot product; only a nonzero one is looked at
    further. Coinciding rays always get there, as a nonzero ray has a
    positive dot product with itself, so the violations come in the same
    order and with the same text as when coincidence is checked first.

    No separate check that the projectors sum to the identity is needed:
    for nonzero rays in dimension d they do exactly when there are d rays
    and they are pairwise orthogonal. An orthogonal basis resolves the
    identity. Conversely, each rank-1 projector has trace 1, so the trace
    of the sum gives n = d; the square matrix U whose columns are the
    normalised rays then satisfies U U^T = I, so U is orthogonal and
    U^T U = I, i.e. the rays are pairwise orthogonal.
    """

    rays: tuple[Ray, ...]

    def __init__(self, rays: tuple[Ray, ...]) -> None:
        rays = tuple(rays)
        if not rays:
            raise ContextError(["a context needs at least one ray"])
        dim = len(rays[0].ints)
        for r in rays:
            if len(r.ints) != dim:
                raise _dimension_error(rays, dim)
        violations = [] if len(rays) == dim else [f"context has {len(rays)} rays, needs {dim}"]
        for a, b in itertools.combinations(rays, 2):
            # _dot, inlined: this runs for every pair of every context.
            dot = sum(map(mul, a.ints, b.ints))
            if dot:
                if a.ints == b.ints:
                    violations.append(f"rays {a.id} and {b.id} coincide after canonicalization")
                else:
                    violations.append(f"rays {a} and {b} are not orthogonal (dot = {dot})")
        if violations:
            raise ContextError(violations)
        if len({r.id for r in rays}) != dim:
            raise ContextError(["a context's ray ids must be distinct"])
        self._store(rays)

    @property
    def dim(self) -> int:
        return self.rays[0].dim

    @property
    def ray_ids(self) -> tuple[str, ...]:
        return tuple([r.id for r in self.rays])

    def __len__(self) -> int:
        return len(self.rays)


def validate_context(rays: Sequence[Ray], dim: int) -> Context:
    """The :class:`Context` of ``rays``, which must have dimension ``dim``.

    The constructor checks each ray against the first one, so only a first
    ray of another dimension needs the check against ``dim`` here.
    """
    rays = tuple(rays)
    if rays and len(rays[0].ints) != dim:
        raise _dimension_error(rays, dim)
    return Context(rays)
