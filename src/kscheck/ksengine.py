"""Scenarios of intertwined contexts and everything asked of them.

A scenario is a deduplicated family of rays together with the contexts
that reference them. On top of it this module provides:

* exhaustive search and counting of two-valued valuations (exactly one
  ray per context assigned 1),
* parity certificates of non-colorability (every ray multiplicity even,
  context count odd),
* the functional-composition checks a valuation must satisfy,
* exact feasibility of a noncontextual model: nonnegative rational
  weights over all valuations reproducing every ray's Born probability,
* the orthogonality graph of the ray family.

Search and counting are deterministic: contexts are processed in input
order and rays in context order, so the first valuation found and the
enumeration order are stable across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Union

from .exactlin import RVector, Scalar, _int_nonneg_solve
from .qlogic import Context, Ray, validate_context

if TYPE_CHECKING:
    from .probability import DensityOperator

# Exhaustive operations refuse components larger than this. 2^30 raw
# assignments is far beyond anything the pruned search actually visits,
# but the bound keeps the guarantee honest.
EXHAUSTIVE_RAY_BOUND = 30

# noncontextual_model materializes one LP column per valuation; beyond
# this the exact simplex stops being a desk-scale computation.
MODEL_VALUATION_LIMIT = 20000


class ScenarioError(ValueError):
    """Invalid scenario input."""


class ScenarioTooLargeError(ScenarioError):
    """Scenario exceeds the exhaustive-search bound."""


@dataclass(frozen=True)
class Valuation:
    """Assignment of 0 or 1 to every ray id of a scenario."""

    assignment: Mapping[str, int]

    def __post_init__(self) -> None:
        frozen = dict(self.assignment)
        bad = {k: v for k, v in frozen.items() if v not in (0, 1)}
        if bad:
            raise ValueError(f"valuation values must be 0 or 1, got {bad}")
        object.__setattr__(self, "assignment", frozen)

    def __getitem__(self, ray_id: str) -> int:
        return self.assignment[ray_id]

    def __contains__(self, ray_id: str) -> bool:
        return ray_id in self.assignment

    def ones(self) -> tuple[str, ...]:
        """Ray ids assigned 1, sorted. A valuation is determined by them."""
        return tuple(sorted(k for k, v in self.assignment.items() if v == 1))

    def items(self):
        return self.assignment.items()


@dataclass(frozen=True)
class ParityCertificate:
    """Even/odd bookkeeping that rules out valuations outright.

    If every ray occurs an even number of times across the contexts while
    the number of contexts is odd, then summing the per-context constraint
    "values sum to 1" over all contexts gives an even total on one side
    and an odd total on the other. No valuation can exist.
    """

    ray_multiplicities: Mapping[str, int]
    context_count: int

    def __post_init__(self) -> None:
        mults = dict(self.ray_multiplicities)
        for rid, m in mults.items():
            if m <= 0 or m % 2 != 0:
                raise ValueError(f"multiplicity of {rid} is {m}, expected even and positive")
        if self.context_count % 2 != 1:
            raise ValueError(f"context count {self.context_count} is not odd")
        object.__setattr__(self, "ray_multiplicities", mults)


@dataclass(frozen=True)
class NoncontextualModel:
    """Probability weights over valuations reproducing Born statistics.

    ``weights`` maps valuation enumeration indices to nonzero rational
    weights; ``valuations`` holds the corresponding valuations.
    """

    weights: Mapping[int, Fraction]
    valuations: Mapping[int, Valuation]

    def __post_init__(self) -> None:
        weights = dict(self.weights)
        valuations = dict(self.valuations)
        if set(weights) != set(valuations):
            raise ValueError("weights and valuations must share the same keys")
        for k, w in weights.items():
            if not 0 <= w <= 1:
                raise ValueError(f"weight {w} for valuation {k} is outside [0, 1]")
        if sum(weights.values()) != 1:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "valuations", valuations)

    def ray_probability(self, ray_id: str) -> Fraction:
        """Probability the model assigns to a ray: sum of w(v) over v(ray)=1."""
        return sum(
            (w for k, w in self.weights.items() if self.valuations[k][ray_id] == 1),
            Fraction(0),
        )


@dataclass(frozen=True)
class KSScenario:
    """Deduplicated ray list plus the contexts referencing it."""

    dim: int
    rays: tuple[Ray, ...]
    contexts: tuple[Context, ...]

    def __post_init__(self) -> None:
        ids = [r.id for r in self.rays]
        if len(set(ids)) != len(ids):
            raise ScenarioError("ray ids must be unique")
        if not self.rays or not self.contexts:
            raise ScenarioError("scenario needs at least one ray and one context")
        by_id = {r.id: r for r in self.rays}
        for r in self.rays:
            if r.dim != self.dim:
                raise ScenarioError(f"ray {r.id} has dimension {r.dim}, expected {self.dim}")
        referenced: set[str] = set()
        for c in self.contexts:
            for r in c.rays:
                if by_id.get(r.id) != r:
                    raise ScenarioError(f"context ray {r.id} is not a scenario ray")
                referenced.add(r.id)
        unused = sorted(set(by_id) - referenced)
        if unused:
            raise ScenarioError(f"rays not used in any context: {', '.join(unused)}")

    @cached_property
    def _ray_index(self) -> dict[str, int]:
        return {r.id: i for i, r in enumerate(self.rays)}

    @cached_property
    def _context_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self._ray_index[r.id] for r in c.rays) for c in self.contexts)

    @cached_property
    def _ray_contexts(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.rays]
        for k, ctx in enumerate(self._context_indices):
            for r in ctx:
                out[r].append(k)
        return tuple(tuple(v) for v in out)

    def ray_by_id(self, ray_id: str) -> Ray:
        return self.rays[self._ray_index[ray_id]]

    def multiplicities(self) -> dict[str, int]:
        """How many contexts each ray appears in."""
        return {r.id: len(self._ray_contexts[i]) for i, r in enumerate(self.rays)}


RaySpec = tuple[str, Union[RVector, Iterable[Scalar]]]


def build_scenario(
    rays: Sequence[RaySpec],
    contexts: Sequence[Sequence[str]],
    *,
    merge: bool = True,
    dim: int | None = None,
) -> KSScenario:
    """Assemble and validate a scenario from raw declarations.

    With ``merge=True`` rays with proportional coordinates are unified
    under the first declared id, so a repeated projector is one object
    shared across contexts. With ``merge=False`` every occurrence of a
    ray in a context becomes a fresh ray (id suffixed with ``@c<k>``),
    each appearing in exactly one context; cross-context identity, and
    with it any chance of a parity contradiction, is dropped. Each context
    is validated once, on the declared rays and ids, before merging or
    minting.
    """
    declared: list[Ray] = []
    seen: set[str] = set()
    for rid, coords in rays:
        if rid in seen:
            raise ScenarioError(f"duplicate ray id {rid!r}")
        seen.add(rid)
        declared.append(Ray(rid, coords))
    if not declared or not contexts:
        raise ScenarioError("scenario needs at least one ray and one context")
    if dim is None:
        dim = declared[0].dim
    by_id = {r.id: r for r in declared}
    context_ids = [list(c) for c in contexts]
    for c in context_ids:
        for rid in c:
            if rid not in by_id:
                raise ScenarioError(f"context references undeclared ray {rid!r}")
    referenced = set(itertools.chain.from_iterable(context_ids))
    unused = sorted(set(by_id) - referenced)
    if unused:
        raise ScenarioError(f"rays not used in any context: {', '.join(unused)}")

    validated = [validate_context([by_id[rid] for rid in c], dim) for c in context_ids]
    return _assemble(declared, validated, merge=merge, dim=dim)


def _assemble(
    declared: Sequence[Ray], contexts: Sequence[Context], *, merge: bool, dim: int
) -> KSScenario:
    """Scenario from declared rays and their already validated contexts.

    Merging and minting only swap a ray for one with the same canonical
    coordinates, so the contexts stay valid and are not validated again.
    """
    if merge:
        keeper: dict[tuple[int, ...], Ray] = {}
        for r in declared:
            keeper.setdefault(r.ints, r)
        out_rays = list(keeper.values())
        out_contexts = [Context(tuple(keeper[r.ints] for r in c.rays)) for c in contexts]
    else:
        out_rays = []
        out_contexts = []
        minted: set[str] = set()
        for k, c in enumerate(contexts, start=1):
            fresh = []
            for r in c.rays:
                mid = f"{r.id}@c{k}"
                if mid in minted:
                    raise ScenarioError(f"minted ray id collision: {mid!r}")
                minted.add(mid)
                fresh.append(Ray(mid, r.ints))
            out_rays.extend(fresh)
            out_contexts.append(Context(tuple(fresh)))
    return KSScenario(dim=dim, rays=tuple(out_rays), contexts=tuple(out_contexts))


def without_context(s: KSScenario, index: int) -> KSScenario:
    """Scenario with one context removed.

    Rays left unreferenced are dropped along with it. Raises if the
    scenario would be left without contexts.
    """
    if not 0 <= index < len(s.contexts):
        raise IndexError(f"context index {index} out of range")
    contexts = tuple(c for i, c in enumerate(s.contexts) if i != index)
    if not contexts:
        raise ScenarioError("cannot delete the only context of a scenario")
    referenced = {r.id for c in contexts for r in c.rays}
    rays = tuple(r for r in s.rays if r.id in referenced)
    return KSScenario(dim=s.dim, rays=rays, contexts=contexts)


def _solutions(
    context_rays: Sequence[tuple[int, ...]],
    ray_contexts: Sequence[tuple[int, ...]],
    nrays: int,
) -> Iterator[tuple[int, ...]]:
    """Backtracking core: yield every 0/1 assignment with exactly one 1
    per context, as tuples indexed like the ray list.

    Contexts are settled in index order. Picking the 1 of a context
    immediately forces 0 on every other ray of every context sharing it;
    a context driven to all zeros kills the branch.
    """
    assign = [-1] * nrays
    ncontexts = len(context_rays)

    def settle(k: int) -> Iterator[tuple[int, ...]]:
        if k == ncontexts:
            yield tuple(assign)
            return
        ctx = context_rays[k]
        if any(assign[r] == 1 for r in ctx):
            yield from settle(k + 1)
            return
        for r in ctx:
            if assign[r] != -1:
                continue
            assign[r] = 1
            changed = [r]
            touched: set[int] = set()
            dead = False
            for c2 in ray_contexts[r]:
                for p in context_rays[c2]:
                    if p == r or assign[p] == 0:
                        continue
                    if assign[p] == 1:
                        dead = True
                        break
                    assign[p] = 0
                    changed.append(p)
                    touched.update(ray_contexts[p])
                if dead:
                    break
            if not dead:
                for c2 in touched:
                    if c2 > k and all(assign[p] == 0 for p in context_rays[c2]):
                        dead = True
                        break
            if not dead:
                yield from settle(k + 1)
            for p in changed:
                assign[p] = -1

    # settle refers to itself through its closure cell. Clearing the cell
    # when the search ends or is abandoned frees the search tables at once
    # instead of leaving a cycle for the garbage collector.
    try:
        yield from settle(0)
    finally:
        del settle


def _components(s: KSScenario) -> list[tuple[list[int], list[int]]]:
    """Connected components of the context-intertwining structure.

    Two contexts are connected when they share a ray. Returns, per
    component, the context indices (input order) and ray indices.
    """
    parent = list(range(len(s.rays)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ctx in s._context_indices:
        root = find(ctx[0])
        for r in ctx[1:]:
            parent[find(r)] = root

    groups: dict[int, tuple[list[int], list[int]]] = {}
    for k, ctx in enumerate(s._context_indices):
        groups.setdefault(find(ctx[0]), ([], []))[0].append(k)
    for i in range(len(s.rays)):
        groups[find(i)][1].append(i)
    return [groups[root] for root in sorted(groups, key=lambda r: groups[r][0][0])]


def _component_solutions(s: KSScenario, context_ids: list[int], ray_ids: list[int]):
    local = {g: i for i, g in enumerate(ray_ids)}
    ctxs = [tuple([local[r] for r in s._context_indices[k]]) for k in context_ids]
    ray_ctx: list[list[int]] = [[] for _ in ray_ids]
    for k, ctx in enumerate(ctxs):
        for r in ctx:
            ray_ctx[r].append(k)
    return _solutions(ctxs, [tuple(v) for v in ray_ctx], len(ray_ids))


def find_valuation(s: KSScenario) -> Valuation | None:
    """First valuation in deterministic search order, or None.

    Unlike :func:`count_valuations` this has no size bound; the search
    stops at the first complete assignment.
    """
    hit = next(_solutions(s._context_indices, s._ray_contexts, len(s.rays)), None)
    if hit is None:
        return None
    return Valuation({r.id: hit[i] for i, r in enumerate(s.rays)})


def enumerate_valuations(s: KSScenario) -> Iterator[Valuation]:
    """All valuations in deterministic order. May be a large iteration;
    callers that need the number first should use count_valuations."""
    for hit in _solutions(s._context_indices, s._ray_contexts, len(s.rays)):
        yield Valuation({r.id: hit[i] for i, r in enumerate(s.rays)})


def count_valuations(s: KSScenario, *, max_component_rays: int = EXHAUSTIVE_RAY_BOUND) -> int:
    """Exact number of valuations, by exhaustive pruned enumeration.

    The scenario splits into connected components of intertwined
    contexts; valuations multiply across components, so each component is
    enumerated independently and the bound applies per component.
    """
    comps = _components(s)
    for _, ray_ids in comps:
        if len(ray_ids) > max_component_rays:
            raise ScenarioTooLargeError(
                f"component with {len(ray_ids)} rays exceeds the exhaustive bound "
                f"of {max_component_rays}"
            )
    total = 1
    for context_ids, ray_ids in comps:
        total *= sum(1 for _ in _component_solutions(s, context_ids, ray_ids))
        if total == 0:
            return 0
    return total


def parity_certificate(s: KSScenario) -> ParityCertificate | None:
    """Detect the even/odd structure that forbids valuations.

    Returns a certificate iff every ray's multiplicity across contexts is
    even and the number of contexts is odd; otherwise None. A certificate
    implies count_valuations(s) == 0.
    """
    mults = s.multiplicities()
    if len(s.contexts) % 2 == 1 and all(m % 2 == 0 for m in mults.values()):
        return ParityCertificate(ray_multiplicities=mults, context_count=len(s.contexts))
    return None


@dataclass(frozen=True)
class FuncReport:
    """Outcome of the functional-composition checks on an assignment."""

    idempotence_violations: tuple[str, ...] = ()
    product_violations: tuple[tuple[int, str, str], ...] = ()
    additivity_violations: tuple[tuple[int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not (
            self.idempotence_violations or self.product_violations or self.additivity_violations
        )

    def lines(self) -> list[str]:
        out = []
        for rid in self.idempotence_violations:
            out.append(f"idempotence: v({rid})^2 != v({rid})")
        for k, a, b in self.product_violations:
            out.append(f"product: context {k + 1} has v({a}) * v({b}) != 0")
        for k, total in self.additivity_violations:
            out.append(f"additivity: context {k + 1} values sum to {total}, expected 1")
        return out


def verify_func(valuation: Valuation | Mapping[str, int], s: KSScenario) -> FuncReport:
    """Check an assignment against the constraints a valuation must obey.

    For orthogonal projectors sharing a context the product rule collapses
    to v(P) * v(Q) = 0; squaring gives v(P)^2 = v(P); and each context's
    values must sum to 1. Violations are reported, not raised.
    """
    values = dict(valuation.assignment if isinstance(valuation, Valuation) else valuation)
    missing = sorted(r.id for r in s.rays if r.id not in values)
    if missing:
        raise ValueError(f"assignment does not cover rays: {', '.join(missing)}")

    idem = tuple(r.id for r in s.rays if values[r.id] ** 2 != values[r.id])
    products = []
    additivity = []
    for k, c in enumerate(s.contexts):
        ids = c.ray_ids
        for a, b in itertools.combinations(ids, 2):
            if values[a] * values[b] != 0:
                products.append((k, a, b))
        total = sum(values[rid] for rid in ids)
        if total != 1:
            additivity.append((k, total))
    return FuncReport(
        idempotence_violations=idem,
        product_violations=tuple(products),
        additivity_violations=tuple(additivity),
    )


def noncontextual_model(
    s: KSScenario,
    rho: "DensityOperator",
    *,
    max_valuations: int = MODEL_VALUATION_LIMIT,
) -> NoncontextualModel | None:
    """Exact feasibility of a hidden-weights model for the given state.

    Enumerates every valuation and solves, over exact rationals, for
    nonnegative weights summing to 1 such that for every ray the weighted
    fraction of valuations assigning it 1 equals its Born probability.
    Returns the model or None when the system is infeasible. INFEASIBLE
    here is a theorem: no tolerance is involved anywhere.

    The LP is built in integers from the search's 0/1 tuples, every row
    scaled by the lcm of the targets' denominators, and solved by the
    integer simplex behind :func:`kscheck.exactlin.nonneg_solve`, so the
    vertex is the one ``nonneg_solve`` returns on the same columns.
    Valuation objects are built for the support only.
    """
    from .probability import ray_probability

    if rho.dim != s.dim:
        raise ValueError(f"state has dimension {rho.dim}, scenario has {s.dim}")
    n = count_valuations(s)
    if n == 0:
        return None
    if n > max_valuations:
        raise ScenarioTooLargeError(
            f"{n} valuations exceed the model feasibility limit of {max_valuations}"
        )
    hits = list(_solutions(s._context_indices, s._ray_contexts, len(s.rays)))
    targets = [ray_probability(rho, r) for r in s.rays]
    scale = math.lcm(*[t.denominator for t in targets])
    rows = [[hit[k] * scale for hit in hits] for k in range(len(s.rays))]
    rows.append([scale] * n)
    rhs = [t.numerator * (scale // t.denominator) for t in targets] + [scale]
    weights = _int_nonneg_solve(rows, rhs)
    if weights is None:
        return None
    support = {
        i: Valuation({r.id: hits[i][k] for k, r in enumerate(s.rays)}) for i in weights
    }
    return NoncontextualModel(weights=weights, valuations=support)


def orthogonality_graph(s: KSScenario) -> tuple[tuple[str, str], ...]:
    """Undirected orthogonality edges between distinct rays, as id pairs.

    Vertices are ray ids; an edge joins two rays whose coordinate vectors
    have dot product zero. Pairs and the list itself are sorted by id, so
    the output is deterministic.
    """
    ordered = sorted(s.rays, key=lambda r: r.id)
    return tuple(
        (a.id, b.id)
        for a, b in itertools.combinations(ordered, 2)
        if a.is_orthogonal_to(b)
    )
