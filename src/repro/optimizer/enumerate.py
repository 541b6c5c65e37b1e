"""Join-order enumeration: Selinger dynamic programming and a greedy fallback.

Both enumerators build **left-deep** plans and estimate cardinalities
*incrementally along the plan being built*, exactly the setting the paper
targets: "the query optimization algorithm often needs to estimate the join
result sizes incrementally ... in the dynamic programming algorithm [13],
the AB algorithm [15] and randomized algorithms [14, 5]".

The DP keeps one best (minimum-cost) candidate per table subset; each
candidate carries its own estimated cardinality, obtained by walking the
estimator one table at a time along the candidate's join order.  Cartesian
products are deferred: an expansion without any eligible join predicate is
considered only when a subset has no connected expansion at all (the paper:
"most query optimizers would avoid the join order beginning with
(R1 >< R3) since this would be evaluated as a cartesian product").

Every expansion is priced before it is estimated: a join's cost depends
only on its inputs.  A DP level is every table subset of one size, named
by bit masks over the sorted relations; :func:`_level` lists its options
and :func:`_price` prices all of them in one numpy pass of the cost
model's batched formulas, with each option's cost floor (cheapest join
method, no estimate).  :func:`_settle` then walks each subset's options
cheapest-floor first, estimates an option only while its floor is not
above the best connected total, and builds a plan node for the winner
alone.  Greedy prices one step of all its starts per pass the same way,
and the randomized searches price each fixed order's joins at once.

When the estimator is order-independent (Rule LS under transitive
closure, Section 7: :attr:`JoinSizeEstimator.order_independent`), a
subset's estimate does not depend on which expansion produced it, so both
DPs estimate each subset once, at its cheapest-floor option; its other
options only look up their eligible predicates.  A subset's options are
one group of one :func:`_settle` call, so that group holds the estimate.
Greedy does not reuse estimates: its options extend one candidate by
different tables, so they cover different sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.estimator import EstimateState, JoinSizeEstimator, PreparedJoinPredicate
from ..errors import OptimizationError
from ..sql.predicates import Op
from .cost import CostModel, _columns, _Input
from .plans import JoinMethod, JoinPlan, PlanNode, ScanPlan

__all__ = ["enumerate_dp", "enumerate_dp_bushy", "enumerate_greedy"]


@dataclass(frozen=True)
class _Candidate:
    plan: PlanNode
    cost: float
    state: EstimateState
    #: ``leaf_order(plan)``, extended as the candidate grows.
    order: Tuple[str, ...]
    #: The plan's cost terms as a join input, computed once.
    terms: _Input


def _build_scans(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
) -> Dict[str, _Candidate]:
    """One scan candidate per relation, local predicates pushed down."""
    query = estimator.query
    scans: Dict[str, _Candidate] = {}
    for relation in query.tables:
        local = tuple(p for p in query.predicates if p.is_local and p.references(relation))
        rows = estimator.base_rows(relation)
        width = widths[relation]
        cost = cost_model.scan_cost(original_rows[relation], width, len(local))
        plan = ScanPlan(
            relation=relation,
            base_table=query.base_table(relation),
            local_predicates=local,
            estimated_rows=rows,
            estimated_cost=cost,
            row_width=width,
        )
        state = estimator.start(relation)
        scans[relation] = _Candidate(
            plan, cost, state, (relation,), cost_model._input(state.rows, width)
        )
    return scans


_JOIN_COST: Dict[JoinMethod, Callable[[CostModel, _Input, _Input], np.ndarray]] = {
    JoinMethod.NESTED_LOOPS: CostModel._nested_loops,
    JoinMethod.SORT_MERGE: CostModel._sort_merge,
    JoinMethod.HASH: CostModel._hash,
}


class _Batch(NamedTuple):
    """Priced ``(outer, inner)`` options, in groups of adjacent options.

    Inputs are named by keys into the caller's candidate list.  Option
    ``k``'s ``position`` is ``k`` itself: within a group, options keep
    the order in which the enumerator lists them.
    """

    outers: List[int]
    inners: List[int]
    #: ``outer.cost + inner.cost``.
    bases: List[float]
    #: ``base + min(join cost over the configured methods)``.
    floors: List[float]
    #: Per option, its join cost under each configured method in turn.
    join_costs: List[Tuple[float, ...]]
    #: Option indices by ``(group, floor, position)``.
    visits: List[int]
    #: Group ``g`` is ``visits[offsets[g]:offsets[g + 1]]``.
    offsets: List[int]


def _price(
    cost_model: CostModel,
    methods: Sequence[JoinMethod],
    costs: np.ndarray,
    terms: np.ndarray,
    outers: np.ndarray,
    inners: np.ndarray,
    groups: np.ndarray,
    group_count: int,
) -> _Batch:
    """Price every option of a batch in one numpy pass.

    ``costs[key]`` and ``terms[:, key]`` hold each candidate's cost and
    its :class:`_Input` fields; ``groups`` (non-decreasing) assigns each
    option ``(outers[k], inners[k])`` to a group below ``group_count``.
    The cheapest method is taken as Python's ``min`` takes it (a later
    cost replaces the running minimum only when strictly less), and the
    visiting order is a stable sort, so ties keep their positions.
    """
    bases = costs[outers] + costs[inners]
    outer = _Input(*terms[:, outers])
    inner = _Input(*terms[:, inners])
    join_costs = [_JOIN_COST[method](cost_model, outer, inner) for method in methods]
    if join_costs:
        cheapest = join_costs[0]
        for cost in join_costs[1:]:
            cheapest = np.where(cost < cheapest, cost, cheapest)
        floors = bases + cheapest
    else:
        floors = np.full(len(bases), math.inf)
    visits = np.lexsort((floors, groups))
    offsets = np.searchsorted(groups, np.arange(group_count + 1))
    return _Batch(
        outers.tolist(),
        inners.tolist(),
        bases.tolist(),
        floors.tolist(),
        list(zip(*(cost.tolist() for cost in join_costs))) or [()] * len(bases),
        visits.tolist(),
        offsets.tolist(),
    )


def _stack(candidates: Sequence[_Candidate]) -> Tuple[np.ndarray, np.ndarray]:
    """The candidates' costs and cost-term columns, keyed by list index."""
    costs = np.array([candidate.cost for candidate in candidates], dtype=float)
    return costs, _columns([candidate.terms for candidate in candidates])


def _choose(
    methods: Sequence[JoinMethod],
    join_costs: Sequence[float],
    base: float,
    output_cost: float,
    eligible: Tuple[PreparedJoinPredicate, ...],
) -> Tuple[Optional[JoinMethod], float]:
    """The first cheapest applicable method and its total.

    Sort merge and hash join need an equi-key among the eligible
    predicates; nested loops take any step, cartesian ones included.
    """
    has_equi_key = any(p.predicate.op is Op.EQ for p in eligible)
    method: Optional[JoinMethod] = None
    total = 0.0
    for candidate_method, join_cost in zip(methods, join_costs):
        if candidate_method is not JoinMethod.NESTED_LOOPS and not has_equi_key:
            continue
        method_total = base + join_cost + output_cost
        if method is None or method_total < total:
            method, total = candidate_method, method_total
    return method, total


def _joined(
    outer: _Candidate,
    inner: _Candidate,
    method: JoinMethod,
    total: float,
    state: EstimateState,
    eligible: Tuple[PreparedJoinPredicate, ...],
    terms: _Input,
) -> _Candidate:
    """The candidate, and its plan node, for one chosen join."""
    plan = JoinPlan(
        left=outer.plan,
        right=inner.plan,
        method=method,
        predicates=tuple(p.predicate for p in eligible),
        estimated_rows=state.rows,
        estimated_cost=total,
        row_width=outer.plan.row_width + inner.plan.row_width,
    )
    return _Candidate(plan, total, state, outer.order + inner.order, terms)


def _settle(
    batch: _Batch,
    candidates: Sequence[Optional[_Candidate]],
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    methods: Sequence[JoinMethod],
    bushy: bool = False,
    order_independent: bool = False,
) -> List[Optional[_Candidate]]:
    """Each group's cheapest join among its priced options, by group.

    A group's options are visited in ascending ``(floor, position)``
    order.  The estimator step (``join`` left-deep, ``join_states`` when
    ``bushy``) runs only for an option whose ``floor`` is not above the
    best *connected* total found so far.  Skipping the others changes no
    result:

    * an option's total adds an output cost >= 0 to a join cost >= the
      minimum, and float addition is monotone, so ``total >= floor``;
    * a cartesian option wins only when no connected one exists, so the
      cut compares against connected totals alone;
    * the cut is strict, so an option that could tie the best on cost
      still competes on the ``(cost, leaf order)`` tie-break.

    ``order_independent`` says that every option of the group covers one
    table set whose estimate does not depend on the split
    (:attr:`JoinSizeEstimator.order_independent`).  Then only the first
    option visited runs the estimator step; the others reuse its state and
    output cost (one width per set) and look up only their eligible
    predicates, which decide connectivity, the equi-key test and the plan's
    predicates.  With the output cost known, an option whose ``floor +
    output cost`` exceeds the best connected total is cut before that
    lookup: its total is ``(base + join cost) + output cost``, again no
    less by monotonicity.  The DP passes it; greedy (whose options cover
    different sets) does not.

    The loop skips a cut option and never stops early, so an unordered
    (NaN) floor is still visited whatever its place in the sort.  Among
    visited options the applicable methods are compared by
    :func:`_choose`, and the winner is the minimum by ``(cost, leaf
    order, position)`` — exactly what taking the first minimum of the
    connected (else cartesian) options in position order would give.
    Symmetric cost formulas (sort-merge) tie exactly between mirror-image
    orders; the leaf-order tie-break keeps plan choice independent of
    hash-randomized set iteration.  Only the winner gets a plan node.
    """
    floors, bases, join_costs = batch.floors, batch.bases, batch.join_costs
    outers, inners, visits = batch.outers, batch.inners, batch.visits
    winners: List[Optional[_Candidate]] = []
    for start, stop in zip(batch.offsets, batch.offsets[1:]):
        connected_bound = math.inf
        known: Optional[Tuple[EstimateState, float]] = None
        best: Dict[bool, tuple] = {}
        for k in visits[start:stop]:
            floor = floors[k]
            if floor > connected_bound:
                continue
            outer = candidates[outers[k]]
            inner = candidates[inners[k]]
            if known is not None:
                state, output_cost = known
                if floor + output_cost > connected_bound:
                    continue
                if bushy:
                    eligible = estimator.eligible_between(
                        outer.state.tables, inner.state.tables
                    )
                else:
                    eligible = estimator.eligible(outer.state.tables, inner.order[0])
            else:
                if bushy:
                    state, step = estimator.join_states(outer.state, inner.state)
                else:
                    state, step = estimator.join(outer.state, inner.order[0])
                eligible = step.eligible
                output_cost = cost_model.output_cost(
                    state.rows, outer.plan.row_width + inner.plan.row_width
                )
                if order_independent:
                    known = (state, output_cost)
            method, total = _choose(
                methods, join_costs[k], bases[k], output_cost, eligible
            )
            if method is None:
                continue
            connected = bool(eligible)
            key = (total, outer.order + inner.order, k)
            held = best.get(connected)
            if held is None or key < held[0]:
                best[connected] = (key, method, state, eligible, outer, inner)
                if connected:
                    connected_bound = total

        winner = best.get(True) or best.get(False)
        if winner is None:
            winners.append(None)
            continue
        (total, _, _), method, state, eligible, outer, inner = winner
        width = outer.plan.row_width + inner.plan.row_width
        terms = cost_model._input(state.rows, width)
        winners.append(_joined(outer, inner, method, total, state, eligible, terms))
    return winners


class _Level(NamedTuple):
    """The options of every table subset of one size, by bit mask.

    Relation ``i`` of the sorted relations is bit ``1 << i``.  Subsets
    come in ``itertools.combinations`` order; each subset's options are
    adjacent, in the order the enumerator lists them.
    """

    subsets: Tuple[int, ...]
    outers: np.ndarray
    inners: np.ndarray
    groups: np.ndarray


@functools.lru_cache(maxsize=64)
def _level(count: int, size: int, bushy: bool) -> _Level:
    """The options of every ``size``-subset of ``count`` relations.

    Left-deep, subset ``S`` lists ``(S - {i}, {i})`` for each member
    ``i`` in order; bushy, ``(L, S - L)`` for every non-empty proper
    ``L`` by size, then in ``combinations`` order, the ordering doubling
    as the outer/inner orientation choice.  The arrays are read-only:
    the cache shares them between calls.
    """
    subsets: List[int] = []
    outers: List[int] = []
    inners: List[int] = []
    groups: List[int] = []
    for group, members in enumerate(itertools.combinations(range(count), size)):
        subset = sum(1 << member for member in members)
        subsets.append(subset)
        if bushy:
            lefts = [
                sum(1 << member for member in left)
                for left_size in range(1, size)
                for left in itertools.combinations(members, left_size)
            ]
        else:
            lefts = [subset ^ (1 << member) for member in members]
        outers.extend(lefts)
        inners.extend(subset ^ left for left in lefts)
        groups.extend([group] * len(lefts))
    arrays = [np.array(values, dtype=np.intp) for values in (outers, inners, groups)]
    for array in arrays:
        array.setflags(write=False)
    return _Level(tuple(subsets), *arrays)


def _dynamic_program(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
    methods: Sequence[JoinMethod],
    bushy: bool = False,
) -> PlanNode:
    """Settle every table subset by size and return the full set's plan.

    Each level (every subset of one size) is priced in one
    :func:`_price` pass over the options of :func:`_level`, keeping those
    whose inputs are settled, and :func:`_settle` then picks each
    subset's winner.  Cartesian products are deferred inside
    :func:`_settle`: they are kept only when the subset cannot be formed
    through a join predicate.  Settled candidates, their costs and their
    cost terms are held in arrays indexed by the subset's bit mask.
    """
    relations = sorted(estimator.query.tables)
    if not relations:
        raise OptimizationError("cannot optimize a query with no tables")
    scans = _build_scans(estimator, cost_model, widths, original_rows)
    if len(relations) == 1:
        return scans[relations[0]].plan

    order_independent = estimator.order_independent
    slots = 1 << len(relations)
    candidates: List[Optional[_Candidate]] = [None] * slots
    settled = np.zeros(slots, dtype=bool)
    costs = np.zeros(slots)
    terms = np.zeros((len(_Input._fields), slots))

    def keep(masks: Sequence[int], winners: Sequence[Optional[_Candidate]]) -> None:
        kept = [mask for mask, winner in zip(masks, winners) if winner is not None]
        for mask, winner in zip(masks, winners):
            candidates[mask] = winner
        settled[kept] = True
        costs[kept], terms[:, kept] = _stack([candidates[mask] for mask in kept])

    keep([1 << i for i in range(len(relations))], [scans[r] for r in relations])
    for size in range(2, len(relations) + 1):
        level = _level(len(relations), size, bushy)
        outers, inners, groups = level.outers, level.inners, level.groups
        usable = settled[outers] & settled[inners]
        if not usable.all():
            outers, inners, groups = outers[usable], inners[usable], groups[usable]
        batch = _price(
            cost_model, methods, costs, terms, outers, inners, groups,
            len(level.subsets),
        )
        keep(
            level.subsets,
            _settle(
                batch, candidates, estimator, cost_model, methods,
                bushy=bushy, order_independent=order_independent,
            ),
        )

    full = candidates[slots - 1]
    if full is None:
        raise OptimizationError(
            "bushy enumeration found no complete plan" if bushy
            else "dynamic programming found no plan covering all relations"
        )
    return full.plan


def enumerate_dp(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
    methods: Sequence[JoinMethod] = (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE),
) -> PlanNode:
    """Selinger-style dynamic programming over left-deep join orders.

    Args:
        estimator: The (already prepared) join-size estimator — this is the
            pluggable component the experiments swap between SM, SSS, and
            ELS configurations.
        cost_model: Page-based cost model.
        widths: Row width in bytes per relation.
        original_rows: Unfiltered table cardinality per relation (scans
            read whole tables; the paper keeps "the original, unreduced
            table and column cardinalities ... for use in cost calculations
            before the local predicates have been applied").
        methods: Join methods the optimizer may choose from.

    Raises:
        OptimizationError: if the query has no tables.
    """
    return _dynamic_program(estimator, cost_model, widths, original_rows, methods)


def enumerate_greedy(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
    methods: Sequence[JoinMethod] = (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE),
) -> PlanNode:
    """Greedy left-deep enumeration for large queries.

    Tries every relation as the starting table; from each start, repeatedly
    adds the relation whose cheapest join extension has the lowest cost
    (preferring connected extensions).  Returns the best complete plan over
    all starts.  O(n^3) expansions versus DP's exponential subsets.

    Raises:
        OptimizationError: on a query with no tables, or when no start
            yields a complete plan.
    """
    relations = list(estimator.query.tables)
    if not relations:
        raise OptimizationError("cannot optimize a query with no tables")
    scans = _build_scans(estimator, cost_model, widths, original_rows)
    if len(relations) == 1:
        return scans[relations[0]].plan

    # Every start's walk advances one step per pass, so one pass prices
    # the options of all starts.  Keys below ``len(relations)`` name the
    # scans; key ``len(relations) + g`` names walk ``g``'s candidate.
    key = {relation: i for i, relation in enumerate(relations)}
    walks = [(scans[start], [r for r in relations if r != start]) for start in relations]
    for _ in range(len(relations) - 1):
        candidates = [scans[r] for r in relations] + [walk[0] for walk in walks]
        costs, terms = _stack(candidates)
        outers: List[int] = []
        inners: List[int] = []
        groups: List[int] = []
        for group, (_, remaining) in enumerate(walks):
            outers.extend([len(relations) + group] * len(remaining))
            inners.extend(key[relation] for relation in remaining)
            groups.extend([group] * len(remaining))
        batch = _price(
            cost_model, methods, costs, terms,
            np.array(outers, dtype=np.intp), np.array(inners, dtype=np.intp),
            np.array(groups, dtype=np.intp), len(walks),
        )
        expansions = _settle(batch, candidates, estimator, cost_model, methods)
        walks = [
            (expanded, [r for r in remaining if r != expanded.order[-1]])
            for expanded, (_, remaining) in zip(expansions, walks)
            if expanded is not None
        ]

    if not walks:
        raise OptimizationError("greedy enumeration found no complete plan")
    best_overall = walks[0][0]
    for candidate, _ in walks[1:]:
        if candidate.cost < best_overall.cost:
            best_overall = candidate
    return best_overall.plan


def enumerate_dp_bushy(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
    methods: Sequence[JoinMethod] = (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE),
) -> PlanNode:
    """Dynamic programming over *bushy* join trees.

    Like :func:`enumerate_dp` but each subset may be formed by joining any
    two disjoint sub-candidates, not only sub-candidate + single relation.
    Estimation uses :meth:`JoinSizeEstimator.join_states` — under full
    transitive closure Rule LS stays exact for set-to-set joins, so bushy
    plans get the same correct cardinalities as left-deep ones.  Cartesian
    splits are deferred exactly as in the left-deep DP.

    Exponentially more expensive than left-deep DP (O(3^n) splits); meant
    for queries of up to ~10 relations.

    Raises:
        OptimizationError: on a query with no tables, or when the DP
            table never completes a full plan.
    """
    return _dynamic_program(
        estimator, cost_model, widths, original_rows, methods, bushy=True
    )
