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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..core.estimator import EstimateState, JoinSizeEstimator
from ..errors import OptimizationError
from ..sql.predicates import Op
from .cost import CostModel
from .plans import JoinMethod, JoinPlan, PlanNode, ScanPlan

__all__ = ["enumerate_dp", "enumerate_dp_bushy", "enumerate_greedy"]


@dataclass(frozen=True)
class _Candidate:
    plan: PlanNode
    cost: float
    state: EstimateState
    #: ``leaf_order(plan)``, extended as the candidate grows.
    order: Tuple[str, ...]

    @property
    def sort_key(self):
        """Deterministic comparison: cost first, then leaf order.

        Symmetric cost formulas (e.g. sort-merge) can tie exactly between
        mirror-image orders; the lexicographic leaf-order tie-break keeps
        plan choice independent of hash-randomized set iteration.
        """
        return (self.cost, self.order)


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
        scans[relation] = _Candidate(plan, cost, estimator.start(relation), (relation,))
    return scans


def _join_methods_for(
    eligible, methods: Sequence[JoinMethod]
) -> List[JoinMethod]:
    """Methods applicable to this expansion (SM/HJ need an equi-key)."""
    has_equi_key = any(p.predicate.op is Op.EQ for p in eligible)
    result = []
    for method in methods:
        if method is JoinMethod.NESTED_LOOPS or has_equi_key:
            result.append(method)
    return result


def _join_cost(
    cost_model: CostModel,
    method: JoinMethod,
    outer_rows: float,
    outer_width: int,
    inner_rows: float,
    inner_width: int,
) -> float:
    if method is JoinMethod.NESTED_LOOPS:
        return cost_model.nested_loops_cost(
            outer_rows, outer_width, inner_rows, inner_width
        )
    if method is JoinMethod.SORT_MERGE:
        return cost_model.sort_merge_cost(
            outer_rows, outer_width, inner_rows, inner_width
        )
    return cost_model.hash_cost(outer_rows, outer_width, inner_rows, inner_width)


def _expand(
    candidate: _Candidate,
    relation: str,
    scans: Mapping[str, _Candidate],
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    methods: Sequence[JoinMethod],
) -> Optional[_Candidate]:
    """The cheapest way to join ``relation`` into ``candidate``, if any.

    One estimator step per expansion: the step's eligible predicates decide
    which join methods apply, and only the cheapest method gets a plan node.
    """
    new_state, step = estimator.join(candidate.state, relation)
    applicable = _join_methods_for(step.eligible, methods)
    if not applicable:
        return None
    scan = scans[relation]
    assert isinstance(scan.plan, ScanPlan)
    outer_width = candidate.plan.row_width
    inner_width = scan.plan.row_width
    result_width = outer_width + inner_width
    output_cost = cost_model.output_cost(new_state.rows, result_width)
    best_method: Optional[JoinMethod] = None
    best_cost = 0.0
    for method in applicable:
        join_cost = _join_cost(
            cost_model,
            method,
            candidate.state.rows,
            outer_width,
            scan.state.rows,
            inner_width,
        )
        total = candidate.cost + scan.cost + join_cost + output_cost
        if best_method is None or total < best_cost:
            best_method, best_cost = method, total
    plan = JoinPlan(
        left=candidate.plan,
        right=scan.plan,
        method=best_method,
        predicates=tuple(p.predicate for p in step.eligible),
        estimated_rows=new_state.rows,
        estimated_cost=best_cost,
        row_width=result_width,
    )
    return _Candidate(plan, best_cost, new_state, candidate.order + (relation,))


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
    relations = list(estimator.query.tables)
    if not relations:
        raise OptimizationError("cannot optimize a query with no tables")
    scans = _build_scans(estimator, cost_model, widths, original_rows)
    if len(relations) == 1:
        return scans[relations[0]].plan

    best: Dict[FrozenSet[str], _Candidate] = {
        frozenset((r,)): scans[r] for r in relations
    }
    for size in range(2, len(relations) + 1):
        for subset in map(frozenset, itertools.combinations(relations, size)):
            connected: List[_Candidate] = []
            cartesian: List[_Candidate] = []
            for relation in sorted(subset):
                source = best.get(subset - {relation})
                if source is None:
                    continue
                candidate = _expand(
                    source, relation, scans, estimator, cost_model, methods
                )
                if candidate is None:
                    continue
                assert isinstance(candidate.plan, JoinPlan)
                bucket = cartesian if candidate.plan.is_cartesian else connected
                bucket.append(candidate)
            # Defer cartesian products: only fall back to them when the
            # subset cannot be formed through join predicates.
            pool = connected or cartesian
            if pool:
                best[subset] = min(pool, key=lambda c: c.sort_key)

    full = best.get(frozenset(relations))
    if full is None:
        raise OptimizationError(
            "dynamic programming found no plan covering all relations"
        )
    return full.plan


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
            connected: List[Tuple[_Candidate, str]] = []
            cartesian: List[Tuple[_Candidate, str]] = []
            for relation in remaining:
                expanded = _expand(
                    candidate, relation, scans, estimator, cost_model, methods
                )
                if expanded is None:
                    continue
                assert isinstance(expanded.plan, JoinPlan)
                bucket = cartesian if expanded.plan.is_cartesian else connected
                bucket.append((expanded, relation))
            pool = connected or cartesian
            if not pool:
                failed = True
                break
            candidate, chosen = min(pool, key=lambda pair: pair[0].sort_key)
            remaining.remove(chosen)
        if failed:
            continue
        if best_overall is None or candidate.cost < best_overall.cost:
            best_overall = candidate
    if best_overall is None:
        raise OptimizationError("greedy enumeration found no complete plan")
    return best_overall.plan


def _expand_pair(
    left: _Candidate,
    right: _Candidate,
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    methods: Sequence[JoinMethod],
) -> Optional[_Candidate]:
    """The cheapest join of two disjoint sub-candidates (bushy step)."""
    new_state, step = estimator.join_states(left.state, right.state)
    applicable = _join_methods_for(step.eligible, methods)
    if not applicable:
        return None
    outer_width = left.plan.row_width
    inner_width = right.plan.row_width
    result_width = outer_width + inner_width
    output_cost = cost_model.output_cost(new_state.rows, result_width)
    best_method: Optional[JoinMethod] = None
    best_cost = 0.0
    for method in applicable:
        join_cost = _join_cost(
            cost_model,
            method,
            left.state.rows,
            outer_width,
            right.state.rows,
            inner_width,
        )
        total = left.cost + right.cost + join_cost + output_cost
        if best_method is None or total < best_cost:
            best_method, best_cost = method, total
    plan = JoinPlan(
        left=left.plan,
        right=right.plan,
        method=best_method,
        predicates=tuple(p.predicate for p in step.eligible),
        estimated_rows=new_state.rows,
        estimated_cost=best_cost,
        row_width=result_width,
    )
    return _Candidate(plan, best_cost, new_state, left.order + right.order)


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
    relations = list(estimator.query.tables)
    if not relations:
        raise OptimizationError("cannot optimize a query with no tables")
    scans = _build_scans(estimator, cost_model, widths, original_rows)
    if len(relations) == 1:
        return scans[relations[0]].plan

    best: Dict[FrozenSet[str], _Candidate] = {
        frozenset((r,)): scans[r] for r in relations
    }
    for size in range(2, len(relations) + 1):
        for subset_tuple in itertools.combinations(sorted(relations), size):
            subset = frozenset(subset_tuple)
            connected: List[_Candidate] = []
            cartesian: List[_Candidate] = []
            # Every ordered split into two non-empty disjoint halves; the
            # ordering doubles as the outer/inner orientation choice.
            for left_size in range(1, size):
                for left_tuple in itertools.combinations(subset_tuple, left_size):
                    left_set = frozenset(left_tuple)
                    right_set = subset - left_set
                    left_candidate = best.get(left_set)
                    right_candidate = best.get(right_set)
                    if left_candidate is None or right_candidate is None:
                        continue
                    candidate = _expand_pair(
                        left_candidate, right_candidate, estimator, cost_model, methods
                    )
                    if candidate is None:
                        continue
                    assert isinstance(candidate.plan, JoinPlan)
                    bucket = cartesian if candidate.plan.is_cartesian else connected
                    bucket.append(candidate)
            pool = connected or cartesian
            if pool:
                best[subset] = min(pool, key=lambda c: c.sort_key)

    full = best.get(frozenset(relations))
    if full is None:
        raise OptimizationError("bushy enumeration found no complete plan")
    return full.plan
