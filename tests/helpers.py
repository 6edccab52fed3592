"""Shared generators and independent oracles for the test suite.

Everything takes an explicit ``random.Random`` so failures reproduce.
The brute-force counters here are deliberately dumb: they enumerate raw
assignments with no pruning and no shared code with the package's search,
so they can serve as oracles for it.
"""

import itertools
import random
from fractions import Fraction

from kscheck import (
    DensityOperator,
    KSScenario,
    RMatrix,
    RVector,
    Subspace,
    build_scenario,
)


def rand_fraction(rng: random.Random, lo: int = -8, hi: int = 8, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_vector(rng: random.Random, dim: int, lo: int = -4, hi: int = 4) -> RVector:
    return RVector(tuple(rng.randint(lo, hi) for _ in range(dim)))


def rand_nonzero_vector(rng: random.Random, dim: int, lo: int = -4, hi: int = 4) -> RVector:
    while True:
        v = rand_vector(rng, dim, lo, hi)
        if not v.is_zero():
            return v


def rand_matrix(rng: random.Random, nrows: int, ncols: int, lo: int = -4, hi: int = 4) -> RMatrix:
    return RMatrix(tuple(tuple(rng.randint(lo, hi) for _ in range(ncols)) for _ in range(nrows)))


def rand_subspace(rng: random.Random, dim: int) -> Subspace:
    nvecs = rng.randint(0, dim)
    return Subspace.span([rand_vector(rng, dim) for _ in range(nvecs)], dim)


def rand_subspace_of(rng: random.Random, t: Subspace) -> Subspace:
    """Random subspace of t: span of random combinations of t's basis."""
    nvecs = rng.randint(0, t.dim)
    vectors = []
    for _ in range(nvecs):
        combo = RVector((Fraction(0),) * t.ambient_dim)
        for row in t.basis:
            combo = combo + row.scale(rng.randint(-3, 3))
        vectors.append(combo)
    return Subspace.span([v for v in vectors if not v.is_zero()], t.ambient_dim)


def rand_mixed_state(rng: random.Random, dim: int, max_parts: int = 4) -> DensityOperator:
    """Convex mixture of random rational rays with rational weights."""
    nparts = rng.randint(1, max_parts)
    raw = [rng.randint(1, 9) for _ in range(nparts)]
    total = sum(raw)
    parts = [
        (Fraction(w, total), rand_nonzero_vector(rng, dim))
        for w in raw
    ]
    return DensityOperator.mixture(parts)


def brute_force_count(s: KSScenario) -> int:
    """Count valuations by enumerating all 2^n raw assignments."""
    n = len(s.rays)
    assert n <= 20, "oracle is for small scenarios only"
    index = {r.id: i for i, r in enumerate(s.rays)}
    contexts = [tuple(index[rid] for rid in c.ray_ids) for c in s.contexts]
    count = 0
    for bits in itertools.product((0, 1), repeat=n):
        if all(sum(bits[i] for i in ctx) == 1 for ctx in contexts):
            count += 1
    return count


def subscenario(s: KSScenario, context_indices) -> KSScenario:
    """Scenario restricted to a subset of contexts (rays re-collected)."""
    chosen = [s.contexts[i] for i in context_indices]
    referenced = {r.id for c in chosen for r in c.rays}
    rays = [(r.id, r.coords) for r in s.rays if r.id in referenced]
    return build_scenario(rays, [c.ray_ids for c in chosen], dim=s.dim)


def single_context_scenario() -> KSScenario:
    return build_scenario(
        [("a", (1, 0, 0, 0)), ("b", (0, 1, 0, 0)), ("c", (0, 0, 1, 0)), ("d", (0, 0, 0, 1))],
        [["a", "b", "c", "d"]],
    )


def two_disjoint_contexts_scenario() -> KSScenario:
    rays = [
        ("a", (1, 0, 0, 0)), ("b", (0, 1, 0, 0)), ("c", (0, 0, 1, 0)), ("d", (0, 0, 0, 1)),
        ("e", (1, 1, 0, 0)), ("f", (1, -1, 0, 0)), ("g", (0, 0, 1, 1)), ("h", (0, 0, 1, -1)),
    ]
    return build_scenario(rays, [["a", "b", "c", "d"], ["e", "f", "g", "h"]])


def gram_schmidt(vectors):
    """Pairwise orthogonal vectors obtained from ``vectors`` in order, or
    None when they are linearly dependent. Plain Fraction arithmetic on
    tuples, sharing no code with the package."""
    basis = []
    for v in vectors:
        w = [Fraction(x) for x in v]
        for b in basis:
            f = sum(x * y for x, y in zip(w, b)) / sum(y * y for y in b)
            w = [x - f * y for x, y in zip(w, b)]
        if all(x == 0 for x in w):
            return None
        basis.append(w)
    return [tuple(b) for b in basis]
