"""Scenarios: a deduplicated ray family and the contexts referencing it.

A :class:`KSScenario` is built and validated from raw declarations
(:func:`build_scenario`) or from contexts a parser has already validated
(``_assemble``, which :mod:`kscheck.dsl` calls), and loses a context by
:func:`without_context`. It caches what depends on it alone: each
context's ray indices, its components with their search tables, and its
parity subset. What is asked of it, the search, counting, enumeration,
parity certificates and the graph, is :mod:`kscheck.ksengine`'s, so
parsing a scenario, as every command but ``symm`` does, loads no search
code. Everything here works on ints, so loading this module loads
neither :mod:`kscheck.exactlin` nor :mod:`fractions`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .frozen import _Frozen
from .qlogic import Context, Ray, validate_context

if TYPE_CHECKING:
    from typing import Iterable, Union

    from .exactlin import RVector, Scalar

    RaySpec = tuple[str, Union[RVector, Iterable[Scalar]]]

# Turns the digits of bin(ones) into the bytes 0 and 1, for itertools.compress.
_BITS = bytes.maketrans(b"01", b"\0\1")


class ScenarioError(ValueError):
    """Invalid scenario input."""


class _SearchTables(NamedTuple):
    """Bitmask tables of the valuation search over a union of components.

    Its rays are numbered from bit 0 in ray order: local bit ``b`` is the
    scenario's ray ``rays[b]``, and every other field holds local bits.
    Its contexts are numbered by position, in input order. Setting a ray
    to 1 forces 0 on every ray in its ``forced`` mask. ``ray_contexts``
    lists each ray's contexts, one entry per ray slot, so every table is
    linear in the component.
    """

    rays: list[int]  # per local bit, its scenario ray index, increasing
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
    holds the tables of one component of several contexts.

    Their rays, in increasing order, are numbered from local bit 0. Over
    all contexts, as :func:`kscheck.ksengine.enumerate_valuations` asks,
    every ray is among them, so each local bit is the scenario's own ray
    index.
    """
    context_rays = list(map(s._context_rays.__getitem__, contexts))
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

        The set is found by elimination over GF(2), in one pass over the
        contexts in input order. Context ``k``'s row holds bit ``i + 1``
        for each of its rays ``i``, and the parity unit, bit 0, which
        counts the contexts summed: a sum of rows is 1 exactly when an odd
        sum of ray masks is 0. A row is kept when it is not in the span of
        the rows kept before it. It reduces to 1 exactly when its sum with
        the unit lies in that span, as no kept row leads with bit 0. The
        first row that does is returned, with the kept rows that sum to
        it and the unit; they are unique, as the kept rows are
        independent. So linear algebra alone fixes the set: the first odd
        dependency in input order. A row holding a ray that lies in no
        other row is always kept and never among them, as no other row
        can cancel that ray's bit.

        A scenario where no ray lies in two contexts has no set at all; it
        is told by counting, with no row built. In odd dimension there is
        no set either. Every context has ``dim`` rays (see the class
        docstring), so an odd set of contexts has an odd number
        ``dim * |set|`` of ray slots, while a cover meeting every ray an
        even number of times has an even number. So the elimination runs
        in even dimension only. (None decides no verdict: the search that
        follows it is exact.)
        """
        if self.dim % 2 or not self._shares_rays:
            return None
        # Reduced rows keyed by the bit length of their leading bit. Only
        # rows other than 0 and 1 are stored, so no key is 0 or 1.
        pivots: dict[int, tuple[int, int]] = {}
        for k, rays in enumerate(self._context_rays):
            row, subset = 1, 1 << k
            for i in rays:
                row |= 2 << i
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
