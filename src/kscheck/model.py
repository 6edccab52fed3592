"""Noncontextual models: nonnegative rational weights over valuations
that reproduce every ray's Born probability under a state.

A state has such a model exactly when each component of its scenario
has one (see :func:`noncontextual_model`), so the model is solved one
component at a time: a lone context, which shares no ray, takes its Born
probabilities as its weights, each component of several contexts solves
an exact LP over its own valuations and the rows :func:`_kept_rays`
keeps, and the components' models are joined by the north-west corner
coupling. A component's valuations and kept rows depend on the scenario
alone, so each is searched and peeled once per scenario, on the search
tables of the component's record (see ``KSScenario._components``), and
kept in the record's store for every later state, in the tables' local
bits, so the store of a component is as wide as the component. Only
``kscheck model`` and the library load this module,
and with it :mod:`kscheck.exactlin`, :mod:`fractions` and
:mod:`kscheck.probability`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from . import exactlin, ksengine, probability
from .frozen import _Frozen
from .ksengine import ScenarioTooLargeError, _gave_up, _valuation

if TYPE_CHECKING:
    from .ksengine import Valuation
    from .probability import DensityOperator
    from .scenario import KSScenario, _Component, _SearchTables

# noncontextual_model materializes one LP column per valuation of a
# component; beyond this the exact simplex stops being a desk-scale
# computation.
MODEL_VALUATION_LIMIT = 20000


class NoncontextualModel(_Frozen):
    """Probability weights over valuations reproducing Born statistics.

    ``weights`` maps keys to rational weights in [0, 1] summing to 1, and
    ``valuations`` holds the valuation of each key. The models
    :func:`noncontextual_model` returns hold positive weights only; a model
    built by hand may hold zeros. The keys follow the enumeration order of
    :func:`kscheck.ksengine.enumerate_valuations`. On a scenario of one
    component they are the valuations' enumeration indices. On several
    they number the joined support 0, 1, 2, ... in enumeration order.
    """

    weights: Mapping[int, Fraction]
    valuations: Mapping[int, Valuation]

    def __init__(self, weights: Mapping[int, Fraction], valuations: Mapping[int, Valuation]) -> None:
        weights = dict(weights)
        valuations = dict(valuations)
        if set(weights) != set(valuations):
            raise ValueError("weights and valuations must share the same keys")
        for k, w in weights.items():
            if not isinstance(w, (int, Fraction)):
                raise TypeError(
                    f"weight {w!r} for valuation {k}: expected an integer or Fraction, got {type(w).__name__}"
                )
            if not 0 <= w <= 1:
                raise ValueError(f"weight {w} for valuation {k} is outside [0, 1]")
        if sum(weights.values()) != 1:
            raise ValueError("weights must sum to exactly 1")
        weights = {k: exactlin._frac(w) for k, w in weights.items()}
        self._store(weights, valuations)

    def ray_probability(self, ray_id: str) -> Fraction:
        """Probability the model assigns to a ray: sum of w(v) over v(ray)=1."""
        return sum(
            (w for k, w in self.weights.items() if self.valuations[k][ray_id] == 1),
            Fraction(0),
        )


def _kept_rays(tables: _SearchTables) -> list[int]:
    """Local bits, in ray order, of the rays of a component of several
    contexts, given by its search tables, whose rows its LP keeps: every
    ray but those the contexts imply.

    The peel: while some unpeeled context holds a ray that lies in no
    other unpeeled context, take the lowest-indexed such context, drop
    the row of its first such ray in context order, and mark the
    context peeled. A context's index is its position in the tables,
    which follow input order. ``live`` counts each ray's unpeeled
    contexts, and a context enters the heap when one of its rays' counts
    reaches 1, which happens once per ray. It stays eligible until it is
    peeled, because only its own peel lowers that count again. So the
    peel takes time linear in the ray slots, up to the heap's log factor.

    The dropped rows are implied. Every valuation sets exactly one ray
    per context to 1, so on every valuation column a context's rows sum
    to the all-ones row; every context is an orthogonal basis, as every
    :class:`~kscheck.qlogic.Context` is, so its rays' Born probabilities
    sum to exactly 1, the ones row's target.
    Hence a dropped ray's row equals the ones row minus the other rows
    of its context, targets included. When it was dropped, each of
    those other rays lay in that unpeeled context, so none had been
    dropped before: each is kept or dropped later. Taking the dropped
    rays in reverse peel order, each row is thus rebuilt from the ones
    row and rows already rebuilt or kept. The kept rows and the ones
    row therefore have the full system's feasible set, so the same
    verdict and the same vertices. A dual vector of the kept system,
    padded with zeros, is one of the full system.

    Peeling each component on its own drops the same rays as one peel
    over the whole scenario. A peel changes the ``live`` counts of its
    own context's rays only, and pushes only contexts that hold one of
    them, so the counts and heap entries of a component change only when
    one of its own contexts is peeled. Whenever the whole peel pops one
    of the component's contexts, that context is the least of the
    component's entries, so the component's pops, and the rays they
    drop, come in the same order either way.
    """
    _, context_rays, _, _, ray_contexts = tables
    live = [len(own) for own in ray_contexts]
    peeled = set()
    # Positions come in increasing order, so this is already a heap.
    heap = [k for k, own in enumerate(context_rays) if any(live[i] == 1 for i in own)]
    dropped = set()
    while heap:
        k = heapq.heappop(heap)
        if k in peeled:
            continue
        peeled.add(k)
        own = context_rays[k]
        dropped.add(next(i for i in own if live[i] == 1))
        for i in own:
            live[i] -= 1
            if live[i] == 1:
                heapq.heappush(heap, next(j for j in ray_contexts[i] if j not in peeled))
    return [i for i in range(len(live)) if i not in dropped]


def _component_model(
    s: KSScenario, rho: DensityOperator, component: _Component
) -> dict[int, tuple[list[int], Fraction]] | None:
    """The support of the model of one component of several contexts,
    given by its record, keyed by column, each column's scenario ray
    indices set to 1 with its positive weight, or None when the component
    has no model. Columns are numbered in enumeration order.

    The columns are searched, as local masks of the record's search
    tables, under the node budget, and the kept rays peeled by
    :func:`_kept_rays`, the first time a state asks about the component.
    Both go into the record's store when the search finishes within
    MODEL_VALUATION_LIMIT. The LP has the rows of the kept rays and the
    ones row.
    """
    tables, store = component
    if not store:
        search = ksengine._search(tables, ksengine.SEARCH_NODE_BUDGET)
        hits = list(itertools.islice(search, MODEL_VALUATION_LIMIT + 1))
        _too_many(len(hits))
        store += _kept_rays(tables), hits
    kept, hits = store
    if not hits:
        return None
    _too_many(len(hits))
    targets = [probability.ray_probability(rho, s.rays[tables.rays[k]]) for k in kept]
    rows = [[ones >> k & 1 for ones in hits] for k in kept]
    rows.append([1] * len(hits))
    weights = exactlin._int_nonneg_solve(rows, targets + [Fraction(1)])
    return None if weights is None else {j: (tables.ray_indices(hits[j]), w) for j, w in weights.items()}


def _too_many(columns: int) -> None:
    limit = MODEL_VALUATION_LIMIT
    if columns > limit:
        raise ScenarioTooLargeError(f"more than {limit} valuations exceed the model feasibility limit")


def _coupling(parts: Sequence[Sequence[tuple[list[int], Fraction]]]) -> list[tuple[list[int], Fraction]]:
    """The north-west corner coupling of the components' models, as
    (scenario ray indices set to 1, weight) pairs.

    Each part is one component's support as (ray indices, weight) pairs
    in the component's enumeration order, its weights positive and
    summing to 1. Lay each part's weights end to end on [0, 1], in that
    order, and cut [0, 1] wherever some part passes from one valuation to
    the next. Each piece joins the valuations that cover it, one per
    part, and weighs its length. Over the least common denominator ``D``
    of all the weights, every cut is an integer multiple of ``1/D``, so
    the cuts are merged in increasing order as ints, and at each cut the
    position of the part that passes it steps forward by one.

    Each valuation of a part is covered by pieces of total length its
    weight, so the joined model keeps every part's model as its marginal.
    A part of sᵢ valuations has sᵢ − 1 cuts, so there are at most
    Σsᵢ − (k − 1) pieces for k parts. Along [0, 1] every part's valuation
    only moves forward, and at each cut one moves. So of two joined
    valuations the earlier is, on every component, at or before the
    later, and strictly before on some. At the first context where they
    differ, in some component, they agree on that component's earlier
    contexts, so there the earlier one chooses an earlier ray: the joined
    support comes out in enumeration order.

    The order of the parts does not matter, but for the order in which
    each joined valuation lists its ray indices. The cuts are sorted by
    position, so the pieces, their lengths and the valuation covering each
    piece in each part are the same in any order of the parts. Cuts of
    several parts at one position only break ties: every cut at a position
    is passed before the next piece starts, whichever part it belongs to.
    So the lone contexts' parts may come after the records' parts.
    """
    denominator = math.lcm(*[w.denominator for part in parts for _, w in part])
    cuts = []
    for p, part in enumerate(parts):
        lengths = [w.numerator * (denominator // w.denominator) for _, w in part[:-1]]
        cuts += [(at, p) for at in itertools.accumulate(lengths)]
    cuts.sort()
    cuts.append((denominator, 0))  # the end of [0, 1] ends the last piece
    positions = [0] * len(parts)
    joined = []
    done = 0
    for at, p in cuts:
        if at != done:
            ones = [i for part, j in zip(parts, positions) for i in part[j][0]]
            joined.append((ones, Fraction(at - done, denominator)))
            done = at
        positions[p] += 1
    return joined


def noncontextual_model(s: KSScenario, rho: DensityOperator) -> NoncontextualModel | None:
    """Exact feasibility of a hidden-weights model for the given state.

    Solves, over exact rationals, for nonnegative weights on the
    valuations, summing to 1, such that for every ray the weighted fraction
    of valuations assigning it 1 equals its Born probability. Returns the
    model or None when there is none. INFEASIBLE here is a theorem: no
    tolerance is involved anywhere.

    A scenario with an odd set of contexts covering every ray an even
    number of times has no valuation, so its answer is None with no
    search.

    The state has a model exactly when every component of the scenario
    (see ``KSScenario._components``) has one. The system's only
    constraints are each ray's marginal and the ones row, and each ray
    lies in exactly one component. A model of the whole, marginalised onto
    one component, therefore meets that component's constraints. Every
    coupling of the components' models keeps each component's marginal, so
    it meets every constraint of the whole. So each component is solved on
    its own, and the first that has no valuation or no model gives None.

    A lone context, which shares no ray, needs no LP: its ``dim``
    valuations each choose one ray, so the marginals force each one's
    weight to that ray's Born probability, and these sum to 1. The lone
    contexts are held to SEARCH_NODE_BUDGET and MODEL_VALUATION_LIMIT too,
    at ``dim`` nodes and valuations each. The valuations of a component of
    several contexts, given by its :class:`~kscheck.scenario._Component`
    record, are enumerated once per scenario, under SEARCH_NODE_BUDGET,
    the first time a state asks about the component, and more than
    MODEL_VALUATION_LIMIT of them raise ScenarioTooLargeError. Its LP has
    a row for each of its rays that its contexts do not imply,
    in ray order, and the all-ones row last. The kept rays are those of
    :func:`_kept_rays`, which peels the component on its own and proves
    the dropped rows redundant, so the component's kept rows have its
    full system's feasible set. The 0/1 valuation columns are built from
    the search's local masks and, with the Born probabilities and the ones
    row's 1 as the right-hand side, handed to the integer simplex behind
    :func:`kscheck.exactlin.nonneg_solve`, whose vertex gives the weights.

    The valuations and the kept rays do not depend on the state, so the
    kept rays' local bits and the search's local masks, in enumeration
    order, are stored in the record's ``store``, and a later call on the
    same scenario reads them instead of searching and peeling. A
    component with no valuation stores an empty list of masks, so it gives
    None again at once. The records are still solved in order, so a state
    with no model on an earlier record gives None before a later one is
    searched, as precomputing every record could raise where this returns
    None. The lone contexts come after the records: a record with no model
    gives None even where a lone context would be over the budget or the
    limit, and a lone context's refusal comes only when every record has a
    model. A refusal is not stored, since it holds for the budget
    and limit in force and not for the scenario: a search over
    SEARCH_NODE_BUDGET stores nothing and raises again on the next call,
    and the stored masks are held to MODEL_VALUATION_LIMIT on every call.
    Only the kept rays and the masks, one int per valuation, are stored;
    the 0/1 rows are built from them on each call.

    On a scenario of one component, the model's keys are the enumeration
    indices of the support. On several, the components' supports are
    joined by the north-west corner coupling (see :func:`_coupling`),
    exactly, into at most Σsᵢ − (k − 1) valuations for k components of sᵢ
    valuations each, keyed 0, 1, 2, ... in enumeration order. Valuation
    objects are built for the support only, from the scenario ray indices
    of its components' columns.
    """
    if rho.dim != s.dim:
        raise ValueError(f"state has dimension {rho.dim}, scenario has {s.dim}")
    if s._parity_subset is not None:
        return None
    lone, records = s._components
    parts = []
    for record in records:
        solved = _component_model(s, rho, record)
        if solved is None:
            return None
        parts.append(solved)
    if lone:
        if s.dim > ksengine.SEARCH_NODE_BUDGET:
            raise _gave_up(ksengine.SEARCH_NODE_BUDGET)
        _too_many(s.dim)
    for k in lone:
        probs = [(i, probability.ray_probability(rho, s.rays[i])) for i in s._context_rays[k]]
        parts.append({j: ([i], p) for j, (i, p) in enumerate(probs) if p})
    if len(parts) == 1:
        (support,) = parts
    else:
        support = dict(enumerate(_coupling([[part[j] for j in sorted(part)] for part in parts])))
    # No check can fail: the weights meet the ones row exactly, or are a
    # basis's Born probabilities, so each part's are positive Fractions
    # summing to 1, and so are the coupling's; the keys are shared.
    return NoncontextualModel._trusted(
        {k: w for k, (_, w) in support.items()},
        {k: _valuation(s, ones) for k, (ones, _) in support.items()},
    )
