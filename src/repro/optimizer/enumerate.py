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
only on its inputs, so :func:`_best_join` computes each option's cost
floor, estimates options cheapest-floor first, and skips (never estimates)
an option whose floor already exceeds the best connected total.  DP,
bushy DP, greedy and the randomized searches all choose join methods
through it, and only each subset's winner gets a plan node.

When the estimator is order-independent (Rule LS under transitive
closure, Section 7: :attr:`JoinSizeEstimator.order_independent`), a
subset's estimate does not depend on which expansion produced it, so both
DPs estimate each subset once, at its cheapest-floor option; its other
options only look up their eligible predicates.  Each subset is settled by
exactly one :func:`_best_join` call, so that call holds the estimate.
Greedy does not reuse estimates: its options extend one candidate by
different tables, so they cover different sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from ..core.estimator import EstimateState, JoinSizeEstimator
from ..errors import OptimizationError
from ..sql.predicates import Op
from .cost import CostModel, _Input
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


_JOIN_COST: Dict[JoinMethod, Callable[[CostModel, _Input, _Input], float]] = {
    JoinMethod.NESTED_LOOPS: CostModel._nested_loops,
    JoinMethod.SORT_MERGE: CostModel._sort_merge,
    JoinMethod.HASH: CostModel._hash,
}


def _best_join(
    pairs: Iterable[Tuple[_Candidate, _Candidate]],
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    methods: Sequence[JoinMethod],
    bushy: bool = False,
    order_independent: bool = False,
) -> Optional[_Candidate]:
    """The cheapest join among ``(outer, inner)`` pairs.

    This is the one place a join is priced and its method chosen.  An
    option's join cost needs only its inputs, so every option is priced
    first, with ``floor = outer.cost + inner.cost + min(join cost)`` over
    the configured methods, and visited in ascending ``floor`` order.  The
    estimator step (``join`` left-deep, ``join_states`` when ``bushy``)
    runs only for an option whose ``floor`` is not above the best
    *connected* total found so far.  Skipping the others changes no result:

    * an option's total adds an output cost >= 0 to a join cost >= the
      minimum, and float addition is monotone, so ``total >= floor``;
    * a cartesian option wins only when no connected one exists, so the
      cut compares against connected totals alone;
    * the cut is strict, so an option that could tie the best on cost
      still competes on the ``(cost, leaf order)`` tie-break.

    ``order_independent`` says that every pair covers one table set whose
    estimate does not depend on the split
    (:attr:`JoinSizeEstimator.order_independent`).  Then only the first
    option visited runs the estimator step; the others reuse its state and
    output cost (one width per set) and look up only their eligible
    predicates, which decide connectivity, the equi-key test and the plan's
    predicates.  With the output cost known, an option whose ``floor +
    output cost`` exceeds the best connected total is cut before that
    lookup: its total is ``(base + join cost) + output cost``, again no
    less by monotonicity.  The DP passes it; greedy (whose pairs cover
    different sets) and the randomized searches do not.

    The loop skips a cut option and never stops early, so an unordered
    (NaN) floor cannot make the outcome depend on the sort.  Among visited options the
    applicable methods (SM/HJ need an equi-key) are compared in
    ``methods`` order by the same total, and the winner is the minimum by
    ``(cost, leaf order, position in pairs)`` — exactly what taking the
    first minimum of the connected (else cartesian) candidates in ``pairs``
    order would give.  Symmetric cost formulas (sort-merge) tie exactly
    between mirror-image orders; the leaf-order tie-break keeps plan
    choice independent of hash-randomized set iteration.  Only the winner
    gets a plan node.
    """
    prices = [_JOIN_COST[method] for method in methods]
    options = []
    for position, (outer, inner) in enumerate(pairs):
        base = outer.cost + inner.cost
        join_costs = [price(cost_model, outer.terms, inner.terms) for price in prices]
        floor = base + min(join_costs) if join_costs else math.inf
        options.append((floor, position, base, join_costs, outer, inner))
    options.sort(key=itemgetter(0, 1))

    connected_bound = math.inf
    known: Optional[Tuple[EstimateState, float]] = None
    best: Dict[bool, tuple] = {}
    for floor, position, base, join_costs, outer, inner in options:
        if floor > connected_bound:
            continue
        width = outer.plan.row_width + inner.plan.row_width
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
            output_cost = cost_model.output_cost(state.rows, width)
            if order_independent:
                known = (state, output_cost)
        has_equi_key = any(p.predicate.op is Op.EQ for p in eligible)
        method: Optional[JoinMethod] = None
        total = 0.0
        for candidate_method, join_cost in zip(methods, join_costs):
            if candidate_method is not JoinMethod.NESTED_LOOPS and not has_equi_key:
                continue
            method_total = base + join_cost + output_cost
            if method is None or method_total < total:
                method, total = candidate_method, method_total
        if method is None:
            continue
        connected = bool(eligible)
        key = (total, outer.order + inner.order, position)
        held = best.get(connected)
        if held is None or key < held[0]:
            best[connected] = (key, method, state, eligible, outer, inner, width)
            if connected:
                connected_bound = total

    winner = best.get(True) or best.get(False)
    if winner is None:
        return None
    (total, order, _), method, state, eligible, outer, inner, width = winner
    plan = JoinPlan(
        left=outer.plan,
        right=inner.plan,
        method=method,
        predicates=tuple(p.predicate for p in eligible),
        estimated_rows=state.rows,
        estimated_cost=total,
        row_width=width,
    )
    return _Candidate(plan, total, state, order, cost_model._input(state.rows, width))


def _dynamic_program(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
    methods: Sequence[JoinMethod],
    bushy: bool = False,
) -> PlanNode:
    """Settle every table subset by size and return the full set's plan.

    Each subset is formed from ``(outer, inner)`` pairs of settled
    sub-candidates: left-deep, ``(best[subset - {r}], scans[r])`` for each
    relation ``r`` in sorted order; bushy, every ordered split into two
    non-empty halves (the ordering doubles as the outer/inner orientation
    choice).  Cartesian products are deferred inside :func:`_best_join`:
    they are kept only when the subset cannot be formed through a join
    predicate.
    """
    relations = list(estimator.query.tables)
    if not relations:
        raise OptimizationError("cannot optimize a query with no tables")
    scans = _build_scans(estimator, cost_model, widths, original_rows)
    if len(relations) == 1:
        return scans[relations[0]].plan

    order_independent = estimator.order_independent
    best: Dict[FrozenSet[str], _Candidate] = {
        frozenset((r,)): scans[r] for r in relations
    }
    for size in range(2, len(relations) + 1):
        for subset_tuple in itertools.combinations(sorted(relations), size):
            subset = frozenset(subset_tuple)
            if bushy:
                pairs = [
                    (outer, inner)
                    for left_size in range(1, size)
                    for left in itertools.combinations(subset_tuple, left_size)
                    if (outer := best.get(frozenset(left))) is not None
                    and (inner := best.get(subset.difference(left))) is not None
                ]
            else:
                pairs = [
                    (outer, scans[relation])
                    for relation in subset_tuple
                    if (outer := best.get(subset - {relation})) is not None
                ]
            winner = _best_join(
                pairs, estimator, cost_model, methods,
                bushy=bushy, order_independent=order_independent,
            )
            if winner is not None:
                best[subset] = winner

    full = best.get(frozenset(relations))
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

    best_overall: Optional[_Candidate] = None
    for start in relations:
        candidate = scans[start]
        remaining = [r for r in relations if r != start]
        failed = False
        while remaining:
            pairs = [(candidate, scans[relation]) for relation in remaining]
            expanded = _best_join(pairs, estimator, cost_model, methods)
            if expanded is None:
                failed = True
                break
            candidate = expanded
            remaining.remove(candidate.order[-1])
        if failed:
            continue
        if best_overall is None or candidate.cost < best_overall.cost:
            best_overall = candidate
    if best_overall is None:
        raise OptimizationError("greedy enumeration found no complete plan")
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
