"""Independent verdict checker. Standard library only; shares no code with kscheck.

Every answer here is derived from the generated inputs alone:

* a valuation is checked by counting its ones in every context;
* counts come from closed forms, brute force over all 0/1 assignments
  for at most ``BRUTE_RAYS`` rays, an odd set of contexts covering every
  ray an even number of times (found by elimination over GF(2); it
  proves the count is 0), or this module's own component-wise
  exact-cover search;
* Born probabilities are v.rho.v / v.v, computed from the mixture the
  state was generated from;
* a FEASIBLE model is checked by substituting its weights; INFEASIBLE is
  checked with this module's own exact phase-one simplex.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# 2^16 assignments take about 0.1 s; larger inputs use the search below,
# which the self-test compares with brute force up to 20 rays.
BRUTE_RAYS = 16


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def effective(rays, contexts, merge: bool = True):
    """The scenario kscheck is documented to build: (ray ids, coords, contexts).

    Generated rays never coincide up to scale, so merging changes nothing;
    without merging, each occurrence in context k becomes ray ``id@c<k>``.
    """
    coords = dict(rays)
    if merge:
        used = {rid for c in contexts for rid in c}
        return [rid for rid, _ in rays if rid in used], coords, [list(c) for c in contexts]
    ids, minted, out = [], {}, []
    for k, c in enumerate(contexts, start=1):
        row = [f"{rid}@c{k}" for rid in c]
        for rid, mid in zip(c, row):
            minted[mid] = coords[rid]
        ids += row
        out.append(row)
    return ids, minted, out


def valuation_ok(contexts, ones) -> bool:
    ones = set(ones)
    return all(sum(rid in ones for rid in c) == 1 for c in contexts)


def _masks(ray_ids, contexts) -> list[int]:
    bit = {rid: 1 << i for i, rid in enumerate(ray_ids)}
    return [sum(bit[rid] for rid in c) for c in contexts]


def brute_count(ray_ids, contexts) -> int:
    """Raw enumeration of all 2^n assignments; no pruning."""
    masks = _masks(ray_ids, contexts)
    return sum(
        all((a & m).bit_count() == 1 for m in masks) for a in range(1 << len(ray_ids))
    )


def parity_subset(ray_ids, contexts) -> list[int] | None:
    """An odd set of contexts covering every ray an even number of times.

    Solves, over GF(2), sum_k x_k * incidence(k) = 0 with sum_k x_k = 1.
    Such a set rules out every valuation: summing "exactly one 1" over it
    counts each ray an even number of times, yet totals an odd number.
    """
    # Row: incidence bits shifted up by one, parity in bit 0; tags record
    # which contexts were summed. The span holds 1 iff some row reduces to it.
    pivots: dict[int, tuple[int, int]] = {}
    for k, m in enumerate(_masks(ray_ids, contexts)):
        row, tags = m << 1 | 1, 1 << k
        while row and row.bit_length() in pivots:
            prow, ptags = pivots[row.bit_length()]
            row, tags = row ^ prow, tags ^ ptags
        if row == 1:
            return [j for j in range(len(contexts)) if tags >> j & 1]
        if row:
            pivots[row.bit_length()] = (row, tags)
    return None


def _components(masks):
    groups: list[tuple[int, list[int]]] = []
    for m in masks:
        joined = [g for g in groups if g[0] & m]
        rest = [g for g in groups if not g[0] & m]
        union, members = m, [m]
        for g in joined:
            union |= g[0]
            members += g[1]
        groups = rest + [(union, members)]
    return [members for _, members in groups]


def _component_valuations(masks):
    """Valuations of one component, as masks of the rays set to 1.

    Picks the context with the fewest open rays, tries each as its 1 and
    closes every ray sharing a context with it; a context left with no
    open ray ends the branch.
    """
    ray_masks: dict[int, int] = {}
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            ray_masks[low] = ray_masks.get(low, 0) | m
            rest ^= low

    def extend(ones: int, open_rays: int, todo: tuple[int, ...]):
        if not todo:
            yield ones
            return
        choices = min(todo, key=lambda m: (m & open_rays).bit_count()) & open_rays
        while choices:
            r = choices & -choices
            choices ^= r
            remaining = tuple(m for m in todo if not m & r)
            left = open_rays & ~ray_masks[r]
            if all(m & left for m in remaining):
                yield from extend(ones | r, left, remaining)

    return extend(0, -1, tuple(masks))


def search_count(ray_ids, contexts) -> int:
    total = 1
    for comp in _components(_masks(ray_ids, contexts)):
        total *= sum(1 for _ in _component_valuations(comp))
        if total == 0:
            break
    return total


def all_valuations(ray_ids, contexts) -> list[frozenset[str]]:
    """Every valuation, as the set of ray ids assigned 1."""
    per_comp = [list(_component_valuations(c)) for c in _components(_masks(ray_ids, contexts))]
    out = []
    for combo in itertools.product(*per_comp):
        ones = sum(combo)
        out.append(frozenset(rid for i, rid in enumerate(ray_ids) if ones >> i & 1))
    return out


def edges(ray_ids, coords) -> list[tuple[str, str]]:
    ordered = sorted(ray_ids)
    return [
        (a, b)
        for i, a in enumerate(ordered)
        for b in ordered[i + 1:]
        if dot(coords[a], coords[b]) == 0
    ]


def born(parts, v) -> Fraction:
    """Probability of ray v in the mixture sum_i w_i |u_i><u_i| / u_i.u_i."""
    vv = dot(v, v)
    return sum((Fraction(w) * Fraction(dot(u, v) ** 2, dot(u, u) * vv) for w, u in parts), Fraction(0))


def lp_feasible(rows, rhs) -> bool:
    """Is there x >= 0 with rows @ x = rhs? Dense phase-one simplex, Bland's rule."""
    m, n = len(rows), len(rows[0])
    t = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        sign = -1 if b < 0 else 1
        t.append([Fraction(sign * x) for x in row] + [Fraction(int(i == j)) for j in range(m)] + [Fraction(sign * b)])
    basis = list(range(n, n + m))
    cost = [-sum(t[i][j] for i in range(m)) for j in range(n)] + [Fraction(0)] * m
    cost.append(-sum(t[i][-1] for i in range(m)))
    while True:
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            return cost[-1] == 0
        ratios = [(t[i][-1] / t[i][col], basis[i], i) for i in range(m) if t[i][col] > 0]
        _, _, r = min(ratios)
        piv = t[r][col]
        t[r] = [x / piv for x in t[r]]
        for i in range(m):
            if i != r and t[i][col]:
                f = t[i][col]
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        f = cost[col]
        cost = [x - f * y for x, y in zip(cost, t[r])]
        basis[r] = col
