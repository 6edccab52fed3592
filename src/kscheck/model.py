"""Noncontextual models: nonnegative rational weights over valuations
that reproduce every ray's Born probability under a state.

A state has such a model exactly when each component of its scenario
has one (see :func:`noncontextual_model`), so the model is solved one
component at a time: a component of one context takes its Born
probabilities as its weights, any other solves an exact LP over its own
valuations and the rows :func:`_kept_rays` keeps, and the components'
models are joined by the north-west corner coupling. A component's
valuations and kept rows depend on the scenario alone, so each is
searched and peeled once per scenario and kept on it for every later
state. Only ``kscheck model`` and the library load this module,
and with it :mod:`kscheck.exactlin`, :mod:`fractions` and
:mod:`kscheck.probability`.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from . import exactlin, ksengine, probability
from .frozen import _Frozen
from .ksengine import ScenarioTooLargeError, _gave_up, _valuation

if TYPE_CHECKING:
    from .ksengine import KSScenario, Valuation
    from .probability import DensityOperator

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


def _kept_rays(s: KSScenario, component: Sequence[int]) -> list[int]:
    """Indices, in ray order, of the rays of a component of several
    contexts whose rows its LP keeps: every ray but those the contexts
    imply.

    The peel: while some unpeeled context holds a ray that lies in no
    other unpeeled context, take the lowest-indexed such context, drop
    the row of its first such ray in context order, and mark the
    context peeled. ``live`` counts each ray's unpeeled contexts, and
    a context enters the heap when one of its rays' counts reaches 1,
    which happens once per ray. It stays eligible until it is peeled,
    because only its own peel lowers that count again. So the peel
    takes time linear in the ray slots, up to the heap's log factor.

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
    context_rays, _, _, ray_contexts = s._tables
    rays = sorted({i for k in component for i in context_rays[k]})
    live = {i: len(ray_contexts[i]) for i in rays}
    peeled = set()
    # The component's contexts are in increasing order, so already a heap.
    heap = [k for k in component if any(live[i] == 1 for i in context_rays[k])]
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
    return [i for i in rays if i not in dropped]


def _component_model(
    s: KSScenario, rho: DensityOperator, component: Sequence[int]
) -> tuple[list[int], dict[int, Fraction]] | None:
    """The columns of one component, as ray masks in enumeration order,
    and the nonzero weights of its model keyed by column, or None when it
    has no model.

    A component of one context has its ``dim`` unit choices as columns.
    Their weights are forced by the marginals, and they are its rays' Born
    probabilities, which sum to 1 as every context is an orthogonal basis.
    Any other component's columns are searched under the node budget, and
    its kept rays peeled by :func:`_kept_rays`, the first time a state
    asks about it. Both are stored in ``KSScenario._model_columns`` when
    the search finishes within MODEL_VALUATION_LIMIT. Its LP has the rows
    of the kept rays and the ones row.
    """
    if len(component) == 1:
        if s.dim > ksengine.SEARCH_NODE_BUDGET:
            raise _gave_up(ksengine.SEARCH_NODE_BUDGET)
        _too_many(s.dim)
        rays = s._context_rays[component[0]]
        weights = {}
        for j, i in enumerate(rays):
            p = probability.ray_probability(rho, s.rays[i])
            if p:
                weights[j] = p
        return [1 << i for i in rays], weights
    stored = s._model_columns.get(component[0])
    if stored is None:
        search = ksengine._search(s._tables, component, ksengine.SEARCH_NODE_BUDGET)
        hits = list(itertools.islice(search, MODEL_VALUATION_LIMIT + 1))
        stored = (_kept_rays(s, component), hits)
        if len(hits) <= MODEL_VALUATION_LIMIT:
            s._model_columns[component[0]] = stored
    kept, hits = stored
    if not hits:
        return None
    _too_many(len(hits))
    targets = [probability.ray_probability(rho, s.rays[k]) for k in kept]
    rows = [[ones >> k & 1 for ones in hits] for k in kept]
    rows.append([1] * len(hits))
    weights = exactlin._int_nonneg_solve(rows, targets + [Fraction(1)])
    return None if weights is None else (hits, weights)


def _too_many(columns: int) -> None:
    limit = MODEL_VALUATION_LIMIT
    if columns > limit:
        raise ScenarioTooLargeError(f"more than {limit} valuations exceed the model feasibility limit")


def _coupling(parts: Sequence[Sequence[tuple[int, Fraction]]]) -> list[tuple[int, Fraction]]:
    """The north-west corner coupling of the components' models, as
    (ray mask, weight) pairs.

    Each part is one component's support as (ray mask, weight) pairs in
    the component's enumeration order, its weights positive and summing
    to 1. Lay each part's weights end to end on [0, 1], in that order, and
    cut [0, 1] wherever some part passes from one valuation to the next.
    Each piece joins the valuations that cover it, one per part, and
    weighs its length. The cuts are merged in increasing order, and ``ones``
    swaps a part's mask for its next one at each of its cuts; the parts'
    rays are disjoint, so XOR does the swap.

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
    """
    ones = 0
    cuts = []
    for part in parts:
        ones |= part[0][0]
        passed = 0
        for (mask, w), (after, _) in zip(part, part[1:]):
            passed += w
            cuts.append((passed, mask ^ after))
    cuts.sort()
    joined = []
    done = Fraction(0)
    for at, swap in cuts:
        if at != done:
            joined.append((ones, at - done))
            done = at
        ones ^= swap
    joined.append((ones, 1 - done))
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

    A component of one context needs no LP: its ``dim`` valuations each
    choose one ray, so the marginals force each one's weight to that ray's
    Born probability, and these sum to 1. Any other component's valuations
    are enumerated once per scenario, under SEARCH_NODE_BUDGET, the first
    time a state asks about the component, and more than
    MODEL_VALUATION_LIMIT of them raise ScenarioTooLargeError; a component
    of one context is held to both too, at ``dim`` nodes and valuations.
    Its LP has a row for each of its rays that its contexts do not imply,
    in ray order, and the all-ones row last. The kept rays are those of
    :func:`_kept_rays`, which peels the component on its own and proves
    the dropped rows redundant, so the component's kept rows have its
    full system's feasible set. The 0/1 valuation columns are built from
    the search's ray masks and, with the Born probabilities and the ones
    row's 1 as the right-hand side, handed to the integer simplex behind
    :func:`kscheck.exactlin.nonneg_solve`, whose vertex gives the weights.

    The valuations and the kept rays do not depend on the state, so the
    kept rays and the search's ray masks, in enumeration order, are stored
    in ``KSScenario._model_columns``, and a later call on the same
    scenario reads them instead of searching and peeling. A component with
    no valuation stores an empty list of masks, so it gives None again at
    once. Components are still solved in order, so a state with
    no model on an earlier component gives None before a later one is
    searched, as precomputing every component could raise where this
    returns None. A refusal is not stored, since it holds for the budget
    and limit in force and not for the scenario: a search over
    SEARCH_NODE_BUDGET stores nothing and raises again on the next call,
    and the stored masks are held to MODEL_VALUATION_LIMIT on every call.
    Only the kept rays and the masks, one int per valuation, are stored;
    the 0/1 rows are built from them on each call.

    On a scenario of one component, the model's keys are the enumeration
    indices of the support. On several, the components' supports are
    joined by the north-west corner coupling (see :func:`_coupling`), in
    exact rationals, into at most Σsᵢ − (k − 1) valuations for k
    components of sᵢ valuations each, keyed 0, 1, 2, ... in enumeration
    order. Valuation objects are built for the support only.
    """
    if rho.dim != s.dim:
        raise ValueError(f"state has dimension {rho.dim}, scenario has {s.dim}")
    if s._parity_subset is not None:
        return None
    parts = []
    for component in s._components:
        solved = _component_model(s, rho, component)
        if solved is None:
            return None
        parts.append(solved)
    if len(parts) == 1:
        ((hits, weights),) = parts
        support = {i: _valuation(s, hits[i]) for i in weights}
        # No check can fail: the weights meet the ones row exactly, or are a
        # basis's Born probabilities, so they are positive Fractions summing
        # to 1, keyed like the support.
        return NoncontextualModel._trusted(weights, support)
    joined = _coupling([[(hits[j], weights[j]) for j in sorted(weights)] for hits, weights in parts])
    # No check can fail: each part's weights are positive and sum to 1, so
    # the coupling's are positive and sum to 1; the keys are shared.
    return NoncontextualModel._trusted(
        {n: w for n, (_, w) in enumerate(joined)},
        {n: _valuation(s, ones) for n, (ones, _) in enumerate(joined)},
    )
