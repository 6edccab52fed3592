"""Everything asked of a scenario: valuations, parity and the graph.

A scenario, a deduplicated family of rays together with the contexts
that reference them, is built and cached by :mod:`kscheck.scenario`. On
top of it this module provides:

* exhaustive search, enumeration and counting of two-valued valuations
  (exactly one ray per context assigned 1) over ray bitmasks,
* parity certificates of non-colorability (an odd set of contexts in
  which every ray occurs an even number of times),
* the functional-composition checks a valuation must satisfy,
* the orthogonality graph of the ray family,
* the search that the noncontextual model of :mod:`kscheck.model` runs
  per component.

Finding, enumerating, counting and the model first look for an odd set
of contexts covering every ray an even number of times, found once per
scenario by one elimination over GF(2) in input order, which returns
the first odd dependency of the contexts; such a set rules out every
valuation, so no search runs. Otherwise finding and enumerating search
depth-first, contexts in input order and rays in context order, so the
first valuation found and the enumeration order are stable across runs.
Counting shows no order, so it branches on the context with the fewest
open rays and caches the count of each residual scenario. Both keep a
state as the mask of the rays still open and expand it by one step that
checks only the contexts of the rays it closes. Counting and the model's
searches give up after SEARCH_NODE_BUDGET search nodes; finding and
enumerating valuations have no budget.

Contexts that share no ray, directly or through other contexts, pose
independent problems. Finding, counting and the model therefore work
one component at a time, over the components cached once per scenario
(see ``KSScenario._components``). A context that shares no ray is a lone
context, and needs no search: its first ray is its first valuation and
its ``dim`` rays its count, so finding, counting and the model each
handle all lone contexts in one step. Each other component is one
``_Component`` record, which holds the component's own search tables,
in which its rays are bits 0, 1, 2, ... in ray order, and the model's
store. So every mask of a search is as wide as its component, however
large the scenario, and the tables are linear in the component. The
valuation found is still the first of the whole search, as
:func:`find_valuation` proves. Only enumerating keeps the whole search,
as its order interleaves the components; it builds the same tables over
every context, where the bits are the scenario's ray indices.

Everything here works on ints, so loading this module loads neither
:mod:`kscheck.exactlin` nor :mod:`fractions`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .frozen import _Frozen
# build_scenario and without_context are imported so this module still offers them.
from .scenario import KSScenario, ScenarioError, _search_tables, build_scenario, without_context

if TYPE_CHECKING:
    from .scenario import _SearchTables

# count_valuations and noncontextual_model give up after this many search
# nodes, a node being one ray set to 1. The refusal is then about the work
# done, not about the size of the input.
SEARCH_NODE_BUDGET = 1_000_000


class ScenarioTooLargeError(ScenarioError):
    """Exhaustive work exceeds the search-node budget or the model's
    valuation limit."""


class Valuation(_Frozen):
    """Assignment of 0 or 1 to every ray id of a scenario."""

    assignment: Mapping[str, int]

    def __init__(self, assignment: Mapping[str, int]) -> None:
        frozen = dict(assignment)
        bad = {k: v for k, v in frozen.items() if v not in (0, 1) or not isinstance(v, int)}
        if bad:
            raise ValueError(f"valuation values must be 0 or 1, got {bad}")
        self._store(frozen)

    def __getitem__(self, ray_id: str) -> int:
        return self.assignment[ray_id]

    def __contains__(self, ray_id: str) -> bool:
        return ray_id in self.assignment

    def ones(self) -> tuple[str, ...]:
        """Ray ids assigned 1, sorted. A valuation is determined by them."""
        return tuple(sorted(k for k, v in self.assignment.items() if v == 1))

    def items(self):
        return self.assignment.items()


class ParityCertificate(_Frozen):
    """Even/odd bookkeeping that rules out valuations outright.

    ``contexts`` are the 0-based indices, in increasing order, of an odd
    set of contexts, and ``ray_multiplicities`` counts each ray over that
    set. If every ray occurs an even number of times there, then summing
    the per-context constraint "values sum to 1" over the set gives an even
    total on one side and an odd total on the other. No valuation can
    exist.
    """

    ray_multiplicities: Mapping[str, int]
    contexts: tuple[int, ...]

    def __init__(self, ray_multiplicities: Mapping[str, int], contexts: Iterable[int]) -> None:
        mults = dict(ray_multiplicities)
        for rid, m in mults.items():
            if not isinstance(m, int):
                raise TypeError(f"multiplicity of {rid} is {m!r}, expected an int")
            if m <= 0 or m % 2 != 0:
                raise ValueError(f"multiplicity of {rid} is {m}, expected even and positive")
        contexts = tuple(contexts)
        if not all([isinstance(k, int) for k in contexts]):
            raise TypeError(f"context indices must be ints, got {contexts}")
        if list(contexts) != sorted(set(contexts)) or min(contexts, default=0) < 0:
            raise ValueError("context indices must be increasing and nonnegative")
        if len(contexts) % 2 != 1:
            raise ValueError(f"context count {len(contexts)} is not odd")
        self._store(mults, contexts)

    @property
    def context_count(self) -> int:
        return len(self.contexts)


def _gave_up(budget: float) -> ScenarioTooLargeError:
    return ScenarioTooLargeError(f"search gave up after visiting {budget} nodes (rays set to 1)")


def _step(open_rays: int, r: int, tables: _SearchTables) -> int | None:
    """Open rays after setting the open ray ``r`` to 1 in the live state
    ``open_rays``, or None when that leaves a context with no ray for its 1.

    A state is the mask of the open rays: those neither set to 1 nor forced
    to 0. It is live when every context without a 1 still has an open ray.
    Setting ``r`` to 1 closes ``r`` and the open rays of ``forced[r]``, and
    settles every context holding ``r``. Only a context that lost an open
    ray can die, so only the contexts of the newly closed rays are checked.
    Each of them held an open ray, and in a live state an open ray lies in
    no settled context, so each is unsettled. It dies exactly when none of
    its rays stays open, unless it holds ``r``. ``kept`` still holds ``r``,
    so one test covers both.
    """
    _, _, masks, forced, ray_contexts = tables
    closed = open_rays & forced[r]
    kept = open_rays ^ closed
    while closed:
        low = closed & -closed
        for k in ray_contexts[low.bit_length() - 1]:
            if not masks[k] & kept:
                return None
        closed ^= low
    return kept ^ 1 << r


def _search(tables: _SearchTables, budget: float = math.inf) -> Iterator[int]:
    """Yield, as a local mask of the rays set to 1, every 0/1 assignment
    of the rays of ``tables`` with exactly one 1 per context.

    The search starts with every ray of the tables open. Depth-first over
    an explicit stack with one frame per open context. Contexts are
    settled in input order and rays in context order, so solutions come
    in lexicographic order of the choices. A state is the mask of the
    open rays, expanded by :func:`_step`; ``ones`` is kept only to yield
    the valuation. In a live state a context is settled exactly when it
    has no open ray, so the next frame is the next context that meets the
    mask. Raises ScenarioTooLargeError once more than ``budget`` rays have
    been set to 1.
    """
    _, context_rays, masks, _, _ = tables
    depth = len(masks)
    nodes = 0
    # (level, ones, open rays, rays left), every ray open at the start
    stack = [(0, 0, (1 << len(tables.rays)) - 1, iter(context_rays[0]))]
    while stack:
        level, ones, open_rays, rays = stack[-1]
        r = next(rays, None)
        if r is None:
            stack.pop()
        elif open_rays >> r & 1:
            nodes += 1
            if nodes > budget:
                raise _gave_up(budget)
            child = _step(open_rays, r, tables)
            if child is not None:
                level += 1
                while level < depth and not masks[level] & child:
                    level += 1
                if level == depth:
                    yield ones | 1 << r
                else:
                    stack.append((level, ones | 1 << r, child, iter(context_rays[level])))


def _frame(open_rays: int, masks: Sequence[int]) -> list[int]:
    """Counting frame [open rays, choices left, count so far] of a live
    state whose unsettled contexts are the ones in ``masks`` meeting
    ``open_rays``.

    When those contexts share no open ray, each picks its 1 on its own:
    the count is the product of their numbers of open rays, and no choice
    is left. Otherwise the choices are the open rays of the context with
    the fewest of them, the first such context on a tie.
    """
    best, fewest, covered = 0, math.inf, 0
    for m in masks:
        n = (m & open_rays).bit_count()
        covered += n
        if n and n < fewest:
            best, fewest = m & open_rays, n
    if covered == open_rays.bit_count():
        sizes = [(m & open_rays).bit_count() for m in masks if m & open_rays]
        return [open_rays, 0, math.prod(sizes)]
    return [open_rays, best, 0]


def _count(tables: _SearchTables, budget: float) -> int:
    """Number of 0/1 assignments of the rays of ``tables``, those of a
    component of several contexts, with exactly one 1 per context.

    A state is the mask of the open rays, as in :func:`_step`, which
    expands it. Settling a context closes all its rays, so in a live state
    an open ray lies in no settled context. The unsettled contexts are then
    exactly those that meet the mask, and each one's choices are its rays
    in the mask, so the mask alone fixes the number of ways to finish.
    Each state is counted once and cached under its mask. A dead state
    counts 0.

    Depth-first over an explicit stack of :func:`_frame` frames, starting
    with every ray open. Raises ScenarioTooLargeError once more than
    ``budget`` rays have been set to 1, counting every open ray of a state
    whose count is a product.
    """
    masks = tables.context_masks
    cache: dict[int, int] = {}
    nodes = 0
    stack: list[list[int]] = []
    state: int | None = (1 << len(tables.rays)) - 1  # a state to expand before going on
    while True:
        if state is not None:
            frame = _frame(state, masks)
            if not frame[1]:
                nodes += state.bit_count()
                if nodes > budget:
                    raise _gave_up(budget)
            stack.append(frame)
            state = None
        frame = stack[-1]
        open_rays, left, total = frame
        if not left:
            cache[open_rays] = total
            stack.pop()
            if not stack:
                return total
            stack[-1][2] += total
            continue
        low = left & -left
        frame[1] = left ^ low
        nodes += 1
        if nodes > budget:
            raise _gave_up(budget)
        child = _step(open_rays, low.bit_length() - 1, tables)
        if child is not None:
            known = cache.get(child)
            if known is None:
                state = child
            else:
                frame[2] += known


def _valuation(s: KSScenario, ones: Iterable[int]) -> Valuation:
    """The valuation setting to 1 the rays of scenario indices ``ones``."""
    rays = s.rays
    # A fresh dict of the bits 0 and 1, which is what the checks ensure.
    values = dict.fromkeys([r.id for r in rays], 0)
    for i in ones:
        values[rays[i].id] = 1
    return Valuation._trusted(values)


def find_valuation(s: KSScenario) -> Valuation | None:
    """First valuation in deterministic search order, or None.

    The order is :func:`enumerate_valuations`': the choices, one ray per
    context, compared lexicographically with contexts in input order and
    each context's rays in context order. The first valuation is found one
    component at a time, and is the same. The constraints of a component
    (see ``KSScenario._components``) hold rays of that component only, so a
    choice sequence is a valuation exactly when its restriction to each
    component is one of that component. Let ``m`` join each component's
    first valuation, and let ``x`` be any other valuation. At the first
    context where they differ, in a component ``C``, ``m`` and ``x`` agree
    on every earlier context of ``C``; as ``m`` is ``C``'s first, ``m``
    chooses an earlier ray there. So ``m`` comes before ``x``.

    Each lone context takes its first ray, with no search; each
    :class:`_Component` record runs the search over its own tables, and
    the local bits of its first valuation give back scenario ray indices.
    A record with no valuation gives None. Unlike :func:`count_valuations`
    this has no node budget; each search stops at its first complete
    assignment.
    """
    if s._parity_subset is not None:
        return None
    lone, records = s._components
    ones = [s._context_rays[k][0] for k in lone]
    for tables, _ in records:
        first = next(_search(tables), None)
        if first is None:
            return None
        ones += tables.ray_indices(first)
    return _valuation(s, ones)


def enumerate_valuations(s: KSScenario) -> Iterator[Valuation]:
    """All valuations in deterministic order, with no node budget. May be
    a large iteration; callers that need the number first should use
    count_valuations."""
    if s._parity_subset is not None:
        return
    tables = _search_tables(s, range(len(s.contexts)))
    for ones in _search(tables):
        yield _valuation(s, tables.ray_indices(ones))


def count_valuations(s: KSScenario) -> int:
    """Exact number of valuations.

    0 at once when an odd set of contexts covers every ray an even number
    of times. Otherwise the scenario splits into connected components of
    intertwined contexts; valuations multiply across components, so each
    component is counted on its own. Each :class:`_Component` record is
    counted by branching on the context with the fewest open rays and
    caching the count of each residual state, and gives up with
    ScenarioTooLargeError after SEARCH_NODE_BUDGET nodes. A lone context
    has one valuation per ray, ``dim``, and is counted as that many nodes,
    with no search tables, so the lone contexts together give
    ``dim ** len(lone)``.

    The records are counted first, in order, and the lone contexts last.
    So a record that counts 0 gives 0 even where a lone context would be
    over the budget, and a lone context's refusal comes only when every
    record has a count.
    """
    if s._parity_subset is not None:
        return 0
    budget = SEARCH_NODE_BUDGET
    lone, records = s._components
    total = 1
    for tables, _ in records:
        total *= _count(tables, budget)
        if total == 0:
            return 0
    if lone and s.dim > budget:
        raise _gave_up(budget)
    return total * s.dim ** len(lone)


def parity_certificate(s: KSScenario) -> ParityCertificate | None:
    """An odd set of contexts covering every ray an even number of times,
    with each ray's multiplicity over it, or None when there is none.

    The set is the scenario's cached GF(2) subset (see
    ``KSScenario._parity_subset``), so a certificate exists exactly when
    such a set does, and it implies count_valuations(s) == 0. When every
    context is in it, the multiplicities are the whole scenario's.
    """
    subset = s._parity_subset
    if subset is None:
        return None
    contexts = tuple([k for k in range(len(s.contexts)) if subset >> k & 1])
    counts = Counter(rid for k in contexts for rid in s.contexts[k].ray_ids)
    mults = {r.id: counts[r.id] for r in s.rays if r.id in counts}
    # No check can fail: the subset's masks XOR to 0, so each count is even
    # and positive; range gives increasing indices; its row reduced to 1: odd.
    return ParityCertificate._trusted(mults, contexts)


class FuncReport(_Frozen):
    """Outcome of the functional-composition checks on an assignment."""

    idempotence_violations: tuple[str, ...]
    product_violations: tuple[tuple[int, str, str], ...]
    additivity_violations: tuple[tuple[int, int], ...]

    def __init__(
        self,
        idempotence_violations: tuple[str, ...] = (),
        product_violations: tuple[tuple[int, str, str], ...] = (),
        additivity_violations: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self._store(
            tuple(idempotence_violations),
            tuple(map(tuple, product_violations)),
            tuple(map(tuple, additivity_violations)),
        )

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
    values must sum to 1. Violations are reported, not raised, but a value
    that is not an ``int`` raises ``TypeError``, as in :class:`Valuation`.
    """
    values = dict(valuation.assignment if isinstance(valuation, Valuation) else valuation)
    missing = sorted(r.id for r in s.rays if r.id not in values)
    if missing:
        raise ValueError(f"assignment does not cover rays: {', '.join(missing)}")
    inexact = {r.id: values[r.id] for r in s.rays if not isinstance(values[r.id], int)}
    if inexact:
        raise TypeError(f"assignment values must be ints, got {inexact}")

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
    return FuncReport(idem, products, additivity)


def orthogonality_graph(s: KSScenario) -> tuple[tuple[str, str], ...]:
    """Undirected orthogonality edges between distinct rays, as id pairs.

    Vertices are ray ids; an edge joins two rays whose coordinate vectors
    have dot product zero. Pairs and the list itself are sorted by id, so
    the output is deterministic.

    The rays, sorted by id, are packed into slots of ``width`` bits: each
    coordinate column is one int holding ray ``j``'s coordinate in slot
    ``j``, at bit ``j * width``. Starting from ``biased``, which holds
    ``bias = dim * m**2`` in every slot, with ``m`` the largest absolute
    coordinate, one multiply-add per nonzero coordinate of ray ``i`` sums
    ``bias`` plus its dot product with ray ``j`` into slot ``j``, for
    every ``j`` at once. Term by term, every dot product lies in
    ``[-bias, bias]``, so each slot's sum lies in ``[0, 2 * bias]``, and
    ``width`` is the least multiple of 8 with ``2 * bias < 2**(width -
    1)``. So the slots of the nonnegative total are its base-``2**width``
    digits, with no carry between them and the top bit of each 0. XOR
    with ``biased`` then zeroes exactly the slots of dot product 0, and
    the zero-slot test ``~((diff | highs) - ones) & highs`` sets the top
    bit of exactly those: ``diff | highs`` puts a 1 above each slot's
    value, and subtracting 1 per slot borrows it, within the slot,
    exactly when the value is 0. Shifted down by ``width - 1``, each
    slot's flag is bit 0 of the slot's first byte and every other bit is
    0, so every ``width // 8``-th byte reads 1 on an edge and 0 otherwise,
    and ``itertools.compress`` picks the edges without a Python step per
    pair.
    """
    ordered = sorted(s.rays, key=lambda r: r.id)
    ids = [r.id for r in ordered]
    n = len(ordered)
    bias = s.dim * max([abs(x) for r in ordered for x in r.ints]) ** 2
    step = ((2 * bias).bit_length() + 8) // 8  # bytes per slot
    width = 8 * step
    columns = [0] * s.dim
    for r in reversed(ordered):
        columns = [(c << width) + x for c, x in zip(columns, r.ints)]
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)
    highs = ones << width - 1
    biased = bias * ones
    edges = []
    for i, r in enumerate(ordered):
        acc = biased
        for x, column in zip(r.ints, columns):
            if x:
                acc += x * column
        diff = acc ^ biased
        # Only the slots of the rays after i are kept.
        zero = (~((diff | highs) - ones) & highs) >> width * (i + 1) + width - 1
        if zero:
            # The bytes stop at the last edge; compress stops with them.
            hits = zero.to_bytes((zero.bit_length() + 7) // 8, "little")[::step]
            edges.extend([(r.id, b) for b in itertools.compress(ids[i + 1 :], hits)])
    return tuple(edges)
