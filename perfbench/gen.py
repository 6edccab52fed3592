"""Seeded input generators for the benchmark. Standard library only.

Nothing here imports kscheck: the program under test receives only the
text, coordinates and states built here. Every ray set comes from a
closed form, so nothing is downloaded:

* Cabello's 18-ray, 9-context set in dimension 4;
* Peres' 24 rays (Peres 1991, J. Phys. A 24 L175): the permutations of
  (1,0,0,0) and (1,+-1,0,0), plus (1,+-1,+-1,+-1);
* the {0,+-1}^4, {0,+-1}^5 and {0,+-1,+-2}^4 sets: every nonzero grid
  vector up to scale.

The contexts of the generated sets are all their orthogonal bases, found
by enumerating cliques of the orthogonality graph.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

# Cabello's set: 18 rays, each in exactly two of the 9 contexts.
CABELLO18_CONTEXTS = (
    ("0001", "0010", "1100", "1m00"),
    ("0001", "0100", "1010", "10m0"),
    ("1m1m", "1mm1", "1100", "0011"),
    ("1m1m", "1111", "10m0", "010m"),
    ("0010", "0100", "1001", "100m"),
    ("1mm1", "1111", "100m", "01m0"),
    ("11m1", "111m", "1m00", "0011"),
    ("11m1", "m111", "1010", "010m"),
    ("111m", "m111", "1001", "01m0"),
)
_DIGIT = {"0": 0, "1": 1, "m": -1}


def canonical(v) -> tuple[int, ...]:
    """Primitive integer form of a rational vector, first nonzero entry positive."""
    v = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def grid_rays(dim: int, values) -> list[tuple[int, ...]]:
    """Every nonzero vector with entries in ``values``, up to scale, sorted."""
    rays = {canonical(v) for v in itertools.product(values, repeat=dim) if any(v)}
    return sorted(rays)


def orthogonal_bases(rays, dim: int) -> list[tuple[int, ...]]:
    """All orthogonal bases among ``rays``, as increasing index tuples."""
    n = len(rays)
    later = [
        {j for j in range(i + 1, n) if dot(rays[i], rays[j]) == 0} for i in range(n)
    ]
    out: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], candidates: set[int]) -> None:
        if len(clique) == dim:
            out.append(clique)
            return
        for j in sorted(candidates):
            extend(clique + (j,), candidates & later[j])

    for i in range(n):
        extend((i,), later[i])
    return out


class RaySet:
    """Named rays plus contexts over them (lists of ray ids)."""

    def __init__(self, name: str, dim: int, rays, contexts):
        self.name = name
        self.dim = dim
        self.rays = list(rays)  # [(id, coords)]
        self.contexts = [list(c) for c in contexts]

    def coords(self) -> dict[str, tuple]:
        return dict(self.rays)

    def subset(self, name: str, context_indices) -> "RaySet":
        """The contexts at ``context_indices`` and the rays they use."""
        contexts = [self.contexts[k] for k in context_indices]
        used = {rid for c in contexts for rid in c}
        return RaySet(name, self.dim, [r for r in self.rays if r[0] in used], contexts)

    def text(self) -> str:
        """The scenario in kscheck's line format, declaring only used rays."""
        used = {rid for c in self.contexts for rid in c}
        lines = [f"# {self.name}", f"dim {self.dim}"]
        lines += [
            f"ray {rid} " + " ".join(str(x) for x in v) for rid, v in self.rays if rid in used
        ]
        lines += ["context " + " ".join(c) for c in self.contexts]
        return "\n".join(lines) + "\n"


def _from_vectors(name: str, prefix: str, dim: int, vectors) -> RaySet:
    rays = [(f"{prefix}{i}", v) for i, v in enumerate(vectors)]
    bases = orthogonal_bases(vectors, dim)
    return RaySet(name, dim, rays, [[rays[i][0] for i in b] for b in bases])


def cabello18() -> RaySet:
    names = sorted({n for c in CABELLO18_CONTEXTS for n in c})
    rays = [(f"c{n}", tuple(_DIGIT[ch] for ch in n)) for n in names]
    contexts = [[f"c{n}" for n in c] for c in CABELLO18_CONTEXTS]
    return RaySet("cabello18", 4, rays, contexts)


def peres24() -> RaySet:
    vectors = set()
    for base in ((1, 0, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0)):
        vectors |= {canonical(p) for p in itertools.permutations(base)}
    vectors |= {canonical((1, a, b, c)) for a, b, c in itertools.product((1, -1), repeat=3)}
    return _from_vectors("peres24", "p", 4, sorted(vectors))


def grid_set(dim: int, values, name: str, prefix: str) -> RaySet:
    return _from_vectors(name, prefix, dim, grid_rays(dim, values))


def named_sets() -> dict[str, RaySet]:
    """The fixed KS sets, independent of the seed."""
    return {
        "cabello18": cabello18(),
        "peres24": peres24(),
        "grid01_4": grid_set(4, (0, 1, -1), "grid01_4", "a"),
        "grid01_5": grid_set(5, (0, 1, -1), "grid01_5", "b"),
        "grid012_4": grid_set(4, (0, 1, -1, 2, -2), "grid012_4", "g"),
    }


def embedded_contexts(big: RaySet, small: RaySet) -> list[int]:
    """Indices of ``big``'s contexts that are, up to scale, ``small``'s contexts."""
    by_coords = {canonical(v): rid for rid, v in big.rays}
    small_coords = small.coords()
    index = {frozenset(c): k for k, c in enumerate(big.contexts)}
    return [
        index[frozenset(by_coords[canonical(small_coords[rid])] for rid in c)]
        for c in small.contexts
    ]


def chain(n: int, rng: random.Random) -> tuple[list, list]:
    """N disjoint dim-2 contexts: (rays, contexts) for build_scenario.

    Context k is the basis {(a, b), (-b, a)} for a distinct primitive
    direction (a, b) with a > 0 and b >= 0, so no two contexts share a ray
    after canonicalisation and the chain has exactly 2^N valuations.
    """
    side = math.isqrt(4 * n) + 2
    pool = [(a, b) for a in range(1, side) for b in range(side) if math.gcd(a, b) == 1]
    rays, contexts = [], []
    for k, (a, b) in enumerate(rng.sample(pool, n)):
        rays += [(f"x{k}a", (a, b)), (f"x{k}b", (-b, a))]
        contexts.append([f"x{k}a", f"x{k}b"])
    return rays, contexts


def basis(d: int, rng: random.Random) -> tuple[list, list]:
    """One context: a seeded signed permutation of the standard basis of R^d."""
    order = list(range(d))
    rng.shuffle(order)
    rays = []
    for i, axis in enumerate(order):
        v = [0] * d
        v[axis] = rng.choice((1, -1, 2, -3))
        rays.append((f"e{i}", tuple(v)))
    return rays, [[rid for rid, _ in rays]]


def rational_state(dim: int, rng: random.Random, parts: int) -> list[tuple[Fraction, tuple[int, ...]]]:
    """A seeded convex mixture of ``parts`` integer rays with rational weights."""
    raw = [rng.randint(1, 6) for _ in range(parts)]
    total = sum(raw)
    out = []
    for w in raw:
        v = tuple(rng.randint(-3, 3) for _ in range(dim))
        while not any(v):
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
        out.append((Fraction(w, total), v))
    return out


def state_text(parts) -> str:
    """A mixture in kscheck's state format; one part is written as ``pure``."""
    if len(parts) == 1:
        return "pure " + " ".join(str(x) for x in parts[0][1]) + "\n"
    lines = ["mixed"] + [
        f"w {w} pure " + " ".join(str(x) for x in v) for w, v in parts
    ]
    return "\n".join(lines) + "\n"
