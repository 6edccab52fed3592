"""Classical finite probability spaces and quantum states.

The classical half is a finite outcome set with rational weights and the
usual measure axioms. The quantum half is a density operator: a rational
symmetric positive-semidefinite matrix of trace one, assigning each
projector the probability trace(rho P). Restricting that assignment to
one context always yields an ordinary classical probability space over
the context's rays; that is the bridge the rest of the toolkit leans on.

Every probability produced here is an exact rational. A density
operator is stored as an integer matrix over one denominator. It comes
from rational data only: an explicit matrix, whose positive
semidefiniteness is decided by fraction-free elimination, never by
eigenvalues, or a convex mixture of rational rays, which needs no check.
Projectors appear only in annotations here, so ``prob`` and ``model``
never load the subspace lattice of :mod:`kscheck.lattice`. Only the
checked constructors of a space and a mixture, ``DensityOperator.matrix``,
:func:`born` and :func:`expectation` import :mod:`kscheck.exactlin`, so
a pure or mixed state and its context distributions load none of it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

from .frozen import _Frozen
from .qlogic import Context, Ray, _canonical_ints

if TYPE_CHECKING:
    from .exactlin import RMatrix, RVector, Scalar
    from .lattice import Projector
    from .scenario import KSScenario

Label = Hashable


class FiniteProbabilitySpace(_Frozen):
    """Finite outcome set with rational weights.

    The constructor checks structure only (weights cover exactly the
    outcomes). Whether the weights actually obey the measure axioms is
    the job of :func:`check_classical_axioms`, which must be able to
    examine broken inputs and report on them.
    """

    outcomes: tuple[Label, ...]
    weights: Mapping[Label, Fraction]

    def __init__(self, outcomes: Iterable[Label], weights: Mapping[Label, Scalar]) -> None:
        outcomes = tuple(outcomes)
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcomes must be distinct")
        import kscheck.exactlin as exactlin

        weights = {k: exactlin._frac(v) for k, v in weights.items()}
        if set(weights) != set(outcomes):
            raise ValueError("weights must be given for exactly the declared outcomes")
        self._store(outcomes, weights)

    @classmethod
    def uniform(cls, outcomes: Iterable[Label]) -> "FiniteProbabilitySpace":
        outcomes = tuple(outcomes)
        if not outcomes:
            raise ValueError("a uniform space needs at least one outcome")
        w = Fraction(1, len(outcomes))
        return cls(outcomes, {o: w for o in outcomes})

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))


def event_probability(space: FiniteProbabilitySpace, event: Iterable[Label]) -> Fraction:
    """Measure of an event, the sum of its outcome weights."""
    event = set(event)
    unknown = event - set(space.outcomes)
    if unknown:
        raise ValueError(f"labels outside the outcome set: {sorted(map(str, unknown))}")
    return sum((space.weights[o] for o in event), Fraction(0))


class _Report(_Frozen):
    """Violations a check found; ``ok`` when there are none."""

    violations: tuple[str, ...]

    def __init__(self, violations: tuple[str, ...]) -> None:
        self._store(tuple(violations))

    @property
    def ok(self) -> bool:
        return not self.violations


class ClassicalAxiomReport(_Report):
    """Outcome of :func:`check_classical_axioms`."""


def check_classical_axioms(space: FiniteProbabilitySpace) -> ClassicalAxiomReport:
    """Verify the finite measure axioms on a space.

    Checks mu(everything) = 1 and nonnegativity; violations are reported,
    not raised. The other two axioms cannot fail here: mu(empty) is an
    empty sum of weights, and a measure defined as exact sums of outcome
    weights is additive over every family of disjoint events.
    """
    violations: list[str] = []
    total = space.total()
    if total != 1:
        violations.append(f"weights sum to {total}, expected 1")
    for o, w in space.weights.items():
        if w < 0:
            violations.append(f"negative weight {w} on outcome {o!r}")
    return ClassicalAxiomReport(violations)


def _is_psd(a: list[list[int]]) -> bool:
    """Whether the symmetric integer matrix ``a`` is PSD, by fraction-free
    symmetric elimination (Bareiss 1968); ``a`` is overwritten.

    Over Fractions, A is PSD iff elimination in order meets no negative
    pivot and every zero pivot has a zero remaining row, which changes
    nothing and is skipped. With K the nonzero pivots used so far, each
    remaining ``a[i][j]`` here is det A[K+i, K+j] and ``prev`` is
    det A[K, K] (1 for empty K), by Sylvester's identity, which also makes
    every division exact. Over Fractions the same entry is that minor over
    det A[K, K], the product of the positive pivots so far. So signs and
    zeros agree, and so do the verdicts. A skipped row changes neither K
    nor the entries, so ``prev`` stays the divisor.
    """
    n, prev = len(a), 1
    for k in range(n):
        p, pivot_row = a[k][k], a[k]
        if p < 0:
            return False
        if p == 0:
            if any(pivot_row[k + 1 :]):
                return False
            continue
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * pivot_row[j]) // prev
        prev = p
    return True


def _mixture(parts: Sequence[tuple[Scalar, RVector | Iterable[Scalar]]]) -> "DensityOperator":
    """The state sum of w v v^T / (v . v) over the parts (w, v), built in
    its integer form with no check of the result.

    Callers check that the weights are nonnegative and sum to 1. Then no
    check could fail: each term is symmetric with trace w, and
    x^T rho x = sum of w (x . v)^2 / (v . v) >= 0. Zero vectors and
    mismatched dimensions still raise ValueError. The integer sum over
    the lcm of the terms' denominators is divided by its gcd with that
    lcm, which is lowest terms.
    """
    terms = [(w, _canonical_ints(coords)) for w, coords in parts]
    dim = len(terms[0][1])
    if any(len(v) != dim for _, v in terms):
        raise ValueError("mixture components have different dimensions")
    dens = [w.denominator * sum(map(mul, v, v)) for w, v in terms]
    common = lcm(*dens)
    total = [[0] * dim for _ in range(dim)]
    for (w, v), den in zip(terms, dens):
        scale = w.numerator * (common // den)
        for i, a in enumerate(v):
            if a:
                row, sa = total[i], scale * a
                for j, b in enumerate(v):
                    row[j] += sa * b
    g = gcd(common, *itertools.chain.from_iterable(total))
    return DensityOperator._trusted(
        (common // g, tuple([tuple([x // g for x in row]) for row in total]))
    )


class DensityOperator(_Frozen):
    """Rational symmetric PSD matrix of trace one.

    Stored as ``_scaled = (D, R)``: the integer matrix ``R`` over one
    denominator ``D > 0`` in lowest terms. That form is unique, so equality
    and hashing compare it, and ``matrix`` is built from it when read.
    ``DensityOperator(matrix)`` takes ``D`` as the lcm of the entries'
    denominators, which is lowest terms, and checks shape, symmetry,
    trace and, as ``D > 0``, PSD by :func:`_is_psd` on ``R``. The other
    constructors skip those checks, which cannot fail (:func:`_mixture`).
    """

    _scaled: tuple[int, tuple[tuple[int, ...], ...]]

    def __init__(self, matrix: RMatrix) -> None:
        if not matrix.is_square():
            raise ValueError("density operator must be square")
        common = lcm(*[x.denominator for row in matrix.rows for x in row])
        rows = [[x.numerator * (common // x.denominator) for x in row] for row in matrix.rows]
        if rows != [list(col) for col in zip(*rows)]:
            raise ValueError("density operator must be symmetric")
        trace = sum([row[i] for i, row in enumerate(rows)])
        if trace != common:
            raise ValueError(f"density operator must have trace 1, got {Fraction(trace, common)}")
        scaled = (common, tuple(map(tuple, rows)))
        if not _is_psd(rows):
            raise ValueError("density operator must be positive semidefinite")
        self._store(scaled)

    @cached_property
    def matrix(self) -> RMatrix:
        import kscheck.exactlin as exactlin

        common, rows = self._scaled
        return exactlin.RMatrix(tuple([tuple([Fraction(x, common) for x in row]) for row in rows]))

    @cached_property
    def _ray_weights(self) -> dict[tuple[int, ...], Fraction]:
        """Born weights by ray coordinates, filled by :func:`ray_probability`."""
        return {}

    @property
    def dim(self) -> int:
        return len(self._scaled[1])

    @classmethod
    def pure(cls, coords: RVector | Iterable[Scalar]) -> "DensityOperator":
        """Pure state on the ray through ``coords``."""
        return _mixture([(1, coords)])

    @classmethod
    def mixture(cls, parts: Sequence[tuple[Scalar, RVector | Iterable[Scalar]]]) -> "DensityOperator":
        """Convex mixture of pure states, weights summing to exactly 1."""
        if not parts:
            raise ValueError("mixture needs at least one component")
        import kscheck.exactlin as exactlin

        weights = [exactlin._frac(w) for w, _ in parts]
        if any(w < 0 for w in weights):
            raise ValueError("mixture weights must be nonnegative")
        if sum(weights) != 1:
            raise ValueError(f"mixture weights sum to {sum(weights)}, expected 1")
        return _mixture([(w, coords) for w, (_, coords) in zip(weights, parts)])

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        """The uniform mixture of a basis, the identity over ``dim``."""
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        return _mixture([(Fraction(1, dim), [int(i == j) for j in range(dim)]) for i in range(dim)])


def born(rho: DensityOperator, p: Projector) -> Fraction:
    """Probability trace(rho p) of the projector in the given state."""
    if rho.dim != p.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, projector {p.dim}")
    import kscheck.exactlin as exactlin

    return exactlin.trace_product(rho.matrix, p.matrix)


def ray_probability(rho: DensityOperator, ray: Ray) -> Fraction:
    """Born probability v . rho v / v . v of a ray, from its integer
    coordinates; equal to ``born(rho, projector_of(ray))`` without
    building the projector.

    The weight depends on the coordinates alone, so each state keeps the
    weights it has computed, keyed by ``ray.ints``, and a ray shared by
    several contexts is weighed once.
    """
    v = ray.ints
    common, rows = rho._scaled
    if len(rows) != len(v):
        raise ValueError(f"dimension mismatch: state {len(rows)}, ray {len(v)}")
    memo = rho._ray_weights
    weight = memo.get(v)
    if weight is None:
        quad = 0
        for x, row in zip(v, rows):
            if x:
                quad += x * sum(map(mul, row, v))
        weight = memo[v] = Fraction(quad, common * sum(map(mul, v, v)))
    return weight


def expectation(rho: DensityOperator, observable: RMatrix) -> Fraction:
    """Mean value trace(rho A) of a symmetric observable matrix."""
    if rho.dim != observable.nrows or not observable.is_square():
        raise ValueError("observable shape does not match the state")
    import kscheck.exactlin as exactlin

    return exactlin.trace_product(rho.matrix, observable)


def context_distribution(rho: DensityOperator, c: Context) -> FiniteProbabilitySpace:
    """The classical probability space a state induces on one context.

    Outcomes are the context's ray ids, weighted by their Born
    probabilities v . rho v / v . v, each computed once per state and ray
    (:func:`ray_probability`). The weights sum to exactly 1, so that is
    not checked: a :class:`Context` is an orthogonal basis by
    construction, and over one the sum of v . rho v / v . v is
    tr(rho U U^T) = tr rho = 1, where U's columns are the normalised rays.

    The space skips the constructor's checks, which cannot fail here: a
    :class:`Context` has distinct ray ids, so the outcomes are distinct,
    and the weights are ``Fraction`` values keyed by exactly those ids.
    """
    weights = {r.id: ray_probability(rho, r) for r in c.rays}
    return FiniteProbabilitySpace._trusted(tuple(weights), weights)


class StateAxiomReport(_Report):
    """Outcome of :func:`check_state_axioms`."""


def check_state_axioms(rho: DensityOperator, scenario: "KSScenario") -> StateAxiomReport:
    """Verify the measure axioms of a state over a scenario's contexts.

    The measure mu(P) = trace(rho P) is exactly additive on sums of
    projectors, so mu(0) = 0 and additivity over every orthogonal family
    a context provides hold as soon as that family exists: the sum of the
    projectors of any subset of a context's atoms must itself be a
    projector. That fails exactly when two atoms of the context are not
    orthogonal, which no :class:`Context` has. So the report is always
    empty; only a state and scenario of different dimensions raise.
    """
    if rho.dim != scenario.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, scenario {scenario.dim}")
    return StateAxiomReport(())


class PvmReport(_Report):
    """Outcome of :func:`finite_pvm_check`."""


def finite_pvm_check(contexts: Sequence[Context]) -> PvmReport:
    """Treat each context as a finite-outcome observable and verify its
    projection-valued measure axioms.

    For outcome subsets B of a context: M(empty) = 0, M(all outcomes) is
    the identity, M(A union B) = M(A) + M(B) for disjoint A and B, and
    M(complement of B) = identity - M(B). With M(B) the exact sum of the
    atoms in B, the first and third hold by construction, and
    M(B) + M(complement of B) = M(all outcomes), so the complement rule
    fails on every B exactly when M(all outcomes) is not the identity.
    The atoms sum to the identity exactly when they form an orthogonal
    basis (see :class:`Context`), and every ``Context`` is one by
    construction. So no axiom can fail, and the report is always empty.
    """
    return PvmReport(())
