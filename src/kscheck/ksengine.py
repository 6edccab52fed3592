"""Scenarios of intertwined contexts and everything asked of them.

A scenario is a deduplicated family of rays together with the contexts
that reference them. On top of it this module provides:

* exhaustive search, enumeration and counting of two-valued valuations
  (exactly one ray per context assigned 1) over ray bitmasks,
* parity certificates of non-colorability (an odd set of contexts in
  which every ray occurs an even number of times),
* the functional-composition checks a valuation must satisfy,
* the orthogonality graph of the ray family,
* what the noncontextual model of :mod:`kscheck.model` asks of a
  scenario: its components, its search, and per component a store that
  the model alone fills and reads.

Finding, enumerating, counting and the model first look for an odd set
of contexts covering every ray an even number of times, found once per
scenario by elimination over GF(2); such a set rules out every
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
:class:`_Component` record, which holds the component's own search
tables, in which its rays are bits 0, 1, 2, ... in ray order, and the
model's store. So every mask of a search is as wide as its component,
however large the scenario, and the tables are linear in the component.
The valuation found is still the first of the whole search, as
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
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .frozen import _Frozen
from .qlogic import Context, Ray, validate_context

if TYPE_CHECKING:
    from typing import Union

    from .exactlin import RVector, Scalar

    RaySpec = tuple[str, Union[RVector, Iterable[Scalar]]]

# count_valuations and noncontextual_model give up after this many search
# nodes, a node being one ray set to 1. The refusal is then about the work
# done, not about the size of the input.
SEARCH_NODE_BUDGET = 1_000_000

# Turns the digits of bin(ones) into the bytes 0 and 1, for itertools.compress.
_BITS = bytes.maketrans(b"01", b"\0\1")


class ScenarioError(ValueError):
    """Invalid scenario input."""


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


class _SearchTables(NamedTuple):
    """Bitmask tables of the valuation search over a union of components.

    Its rays are numbered from bit 0 in ray order: local bit ``b`` is the
    scenario's ray ``rays[b]``, and every other field holds local bits.
    Its contexts are numbered by position, in input order. Setting a ray
    to 1 forces 0 on every ray in its ``forced`` mask. ``ray_contexts``
    lists each ray's contexts, one entry per ray slot, so every table is
    linear in the component.
    """

    rays: Sequence[int]  # per local bit, its scenario ray index, increasing
    context_rays: Sequence[tuple[int, ...]]  # local ray bits, in context order
    context_masks: Sequence[int]
    forced: Sequence[int]  # per ray: every other ray sharing a context with it
    ray_contexts: Sequence[Sequence[int]]  # per ray: the positions of its contexts

    def ray_indices(self, ones: int) -> list[int]:
        """Scenario indices of the rays in the local mask ``ones``."""
        return list(itertools.compress(self.rays, bin(ones)[:1:-1].encode().translate(_BITS)))


def _search_tables(s: KSScenario, contexts: Sequence[int]) -> _SearchTables:
    """Search tables of ``contexts``, the increasing indices of a union of
    components of ``s``. Every context holding one of their rays is among
    them, so the search never leaves them. A :class:`_Component` record
    holds the tables of one component of several contexts. Over all
    contexts, as :func:`enumerate_valuations` asks, local bits are the
    scenario's ray indices, and no renumbering runs.
    """
    context_rays = list(map(s._context_rays.__getitem__, contexts))
    if len(context_rays) == len(s.contexts):
        rays: Sequence[int] = range(len(s.rays))
    else:
        rays = sorted(set().union(*context_rays))
        local = dict(zip(rays, itertools.count()))
        context_rays = [tuple(map(local.__getitem__, own)) for own in context_rays]
    ray_contexts: list[list[int]] = [[] for _ in rays]
    masks = []
    forced = [0] * len(rays)
    for k, own in enumerate(context_rays):
        mask = 0
        for i in own:
            ray_contexts[i].append(k)
            mask |= 1 << i
        masks.append(mask)
        for i in own:
            forced[i] |= mask ^ 1 << i
    return _SearchTables(rays, context_rays, masks, forced, ray_contexts)


class _Component(NamedTuple):
    """A component of several contexts of a scenario.

    ``tables`` are its own search tables, built with the record, as
    finding, counting and the model all read them. ``store`` is the store
    of :mod:`kscheck.model`, which it alone fills, with the component's
    kept rays and valuation columns, and reads; it stays empty until then.
    """

    tables: _SearchTables
    store: list[list[int]]


class KSScenario(_Frozen):
    """Deduplicated ray list plus the contexts referencing it.

    The constructor checks every invariant: unique ray ids, one dimension,
    every context ray a scenario ray, so every context is an orthogonal
    basis of ``dim`` rays (see :class:`Context`), and no unused ray. A
    basis matters to the model: its Born probabilities sum to exactly 1.

    What depends on the scenario alone is computed once and cached on it:
    each context's ray indices, the components and the parity subset.
    Each component of several contexts is one :class:`_Component` record,
    which holds its search tables and the store of :mod:`kscheck.model`.
    """

    dim: int
    rays: tuple[Ray, ...]
    contexts: tuple[Context, ...]

    def __init__(self, dim: int, rays: tuple[Ray, ...], contexts: tuple[Context, ...]) -> None:
        rays, contexts = tuple(rays), tuple(contexts)
        ids = [r.id for r in rays]
        if len(set(ids)) != len(ids):
            raise ScenarioError("ray ids must be unique")
        if not rays or not contexts:
            raise ScenarioError("scenario needs at least one ray and one context")
        if not isinstance(dim, int):
            raise TypeError(f"scenario dimension must be an int, got {type(dim).__name__}")
        by_id = {r.id: r for r in rays}
        for r in rays:
            if r.dim != dim:
                raise ScenarioError(f"ray {r.id} has dimension {r.dim}, expected {dim}")
        referenced: set[str] = set()
        for c in contexts:
            for r in c.rays:
                if by_id.get(r.id) != r:
                    raise ScenarioError(f"context ray {r.id} is not a scenario ray")
                referenced.add(r.id)
        unused = sorted(set(by_id) - referenced)
        if unused:
            raise ScenarioError(f"rays not used in any context: {', '.join(unused)}")
        self._store(dim, rays, contexts)

    @cached_property
    def _context_rays(self) -> tuple[tuple[int, ...], ...]:
        """Per context, the indices of its rays in context order."""
        index = {r.id: i for i, r in enumerate(self.rays)}
        flat = [index[r.id] for c in self.contexts for r in c.rays]
        # Every context has dim rays: one zip cuts the runs of dim.
        return tuple(zip(*[iter(flat)] * self.dim))

    @property
    def _shares_rays(self) -> bool:
        """Whether some ray lies in two contexts.

        Every context has ``dim`` rays and every ray lies in some context,
        so this holds exactly when the ray slots outnumber the rays.
        """
        return len(self.contexts) * self.dim > len(self.rays)

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], tuple[_Component, ...]]:
        """Connected components of the context-intertwining structure.

        Two contexts are connected when they share a ray. First the lone
        contexts, those sharing no ray, by index in input order; then one
        :class:`_Component` record per component of several contexts, in
        order of its first context, with the tables of its contexts in
        input order.
        """
        if not self._shares_rays:
            return tuple(range(len(self.contexts))), ()
        parent = list(range(len(self.rays)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        context_rays = self._context_rays
        for ctx in context_rays:
            root = find(ctx[0])
            for r in ctx[1:]:
                parent[find(r)] = root

        groups: dict[int, list[int]] = {}
        for k, ctx in enumerate(context_rays):
            groups.setdefault(find(ctx[0]), []).append(k)
        lone = tuple([g[0] for g in groups.values() if len(g) == 1])
        return lone, tuple([_Component(_search_tables(self, g), []) for g in groups.values() if len(g) > 1])

    @cached_property
    def _parity_subset(self) -> int | None:
        """An odd set of contexts covering every ray an even number of
        times, as a mask of context indices (context ``k`` is bit ``k``),
        or None when there is none.

        Such a set rules out every valuation. The XOR of its contexts' ray
        masks is 0, so each ray lies in an even number of its contexts.
        Summing "exactly one ray is 1" over the set therefore counts every
        ray's value an even number of times, and the total is even. Yet it
        is one per context of the set, so it is odd.

        The set is found by elimination over GF(2) on the rows
        ``mask << 1 | 1``, whose low bit counts the contexts summed: a row
        reduces to 1 exactly when an odd sum of ray masks is 0. A context
        holding a ray that lies in no other context cannot be in the set,
        so it is skipped, and a scenario where no ray lies in two contexts
        has no set at all; it is told by counting, with no mask built.

        In odd dimension there is no set either. Every context has ``dim``
        rays (see the class docstring), so an odd set of contexts has an
        odd number ``dim * |set|`` of ray slots, while a cover meeting every
        ray an even number of times has an even number. So the elimination
        runs in even dimension only. (None decides no verdict: the search
        that follows it is exact.)
        """
        if self.dim % 2 or not self._shares_rays:
            return None
        # Each context's ray mask, ray i being bit i, and the rays seen twice.
        masks = []
        seen = shared = 0
        for rays in self._context_rays:
            m = 0
            for i in rays:
                m |= 1 << i
            masks.append(m)
            shared |= seen & m
            seen |= m
        lone = seen ^ shared
        # Reduced rows keyed by the bit length of their leading bit. Only
        # rows other than 0 and 1 are stored, so no key is 0 or 1.
        pivots: dict[int, tuple[int, int]] = {}
        for k, m in enumerate(masks):
            if m & lone:
                continue
            row, subset = m << 1 | 1, 1 << k
            while row.bit_length() in pivots:
                pivot, pivot_subset = pivots[row.bit_length()]
                row ^= pivot
                subset ^= pivot_subset
            if row == 1:
                return subset
            if row:
                pivots[row.bit_length()] = (row, subset)
        return None

    def multiplicities(self) -> dict[str, int]:
        """How many contexts each ray appears in."""
        counts = Counter(r.id for c in self.contexts for r in c.rays)
        return {r.id: counts[r.id] for r in self.rays}


def build_scenario(
    rays: Sequence[RaySpec],
    contexts: Sequence[Sequence[str]],
    *,
    merge: bool = True,
) -> KSScenario:
    """Assemble and validate a scenario from raw declarations.

    With ``merge=True`` rays with proportional coordinates are unified
    under the first declared id, so a repeated projector is one object
    shared across contexts. With ``merge=False`` every occurrence of a
    ray in a context becomes a fresh ray (id suffixed with ``@c<k>``),
    each appearing in exactly one context; cross-context identity, and
    with it any chance of a parity contradiction, is dropped. Each context
    is validated once, on the declared rays and ids, before merging or
    minting. The scenario's dimension is the first declared ray's; a
    context with a ray of another dimension is refused.

    Each declaration is read once, and the first error found is raised:
    a ray's duplicate id or bad coordinates, in declaration order; no ray
    or no context; the first undeclared id, in context order; the unused
    rays; then each context's own error, in order.
    """
    by_id: dict[str, Ray] = {}
    for rid, coords in rays:
        if rid in by_id:
            raise ScenarioError(f"duplicate ray id {rid!r}")
        by_id[rid] = Ray(rid, coords)
    if not by_id or not contexts:
        raise ScenarioError("scenario needs at least one ray and one context")
    try:
        members = [tuple([by_id[rid] for rid in c]) for c in contexts]
    except KeyError as err:
        raise ScenarioError(f"context references undeclared ray {err.args[0]!r}") from None
    referenced = {r.id for m in members for r in m}
    if len(referenced) < len(by_id):
        unused = sorted(by_id.keys() - referenced)
        raise ScenarioError(f"rays not used in any context: {', '.join(unused)}")
    declared = list(by_id.values())
    dim = declared[0].dim
    return _assemble(declared, [validate_context(m, dim) for m in members], merge=merge)


def _assemble(declared: Sequence[Ray], contexts: Sequence[Context], *, merge: bool) -> KSScenario:
    """Scenario from declared rays and their already validated contexts.

    The minted rays, the rebuilt contexts and the scenario are built with
    ``_trusted``, as the checks of their constructors cannot fail here.

    Merging and minting only swap a ray for one with the same canonical
    coordinates, so each rebuilt context is still an orthogonal basis.
    A context's rays do not coincide, so neither do their keepers, and
    the keepers' ids are distinct; minted ids are distinct too.

    The callers guarantee the scenario's invariants: the declared ids are
    unique, every context has the first declared ray's dimension, which
    is the scenario's, and holds declared rays only, and every declared
    ray lies in some context. Merging keeps one ray per coordinates and
    minting one per occurrence, so the result has unique ray ids, one
    dimension, at least one ray and one context, every context an
    orthogonal basis of scenario rays, and no unused ray.
    """
    if merge:
        keeper: dict[tuple[int, ...], Ray] = {}
        for r in declared:
            keeper.setdefault(r.ints, r)
        out_rays = list(keeper.values())
        if len(out_rays) == len(declared):
            # No two declared rays coincide, so every ray is its own keeper.
            out_contexts = list(contexts)
        else:
            rebuilt = [tuple([keeper[r.ints] for r in c.rays]) for c in contexts]
            out_contexts = [Context._trusted(rays) for rays in rebuilt]
    else:
        # Minted ids are distinct. k has no "@", so a minted id's last "@c"
        # is the appended one, and the id gives back the declared id and k.
        # A validated context never repeats an id: a repeated ray coincides
        # with itself. A minted ray keeps ints that are already canonical.
        out_contexts = [
            Context._trusted(tuple([Ray._trusted(f"{r.id}@c{k}", r.ints) for r in c.rays]))
            for k, c in enumerate(contexts, start=1)
        ]
        out_rays = [r for c in out_contexts for r in c.rays]
    return KSScenario._trusted(declared[0].dim, tuple(out_rays), tuple(out_contexts))


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
    # Keeps a nonempty subset of a scenario's contexts and exactly the rays
    # they reference, so every invariant of s still holds.
    return KSScenario._trusted(s.dim, rays, contexts)


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
