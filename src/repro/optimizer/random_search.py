"""Randomized join-order search: iterative improvement and annealing.

The paper motivates incremental estimation by exactly these consumers:
"Incremental estimation is used, for example, in the dynamic programming
algorithm [13], the AB algorithm [15] and randomized algorithms [14, 5]."
This module supplies the randomized family (after Swami's thesis [14] and
Kang [5]): both algorithms walk the space of *left-deep join orders*, cost
each complete order by folding the incremental estimator along it (the
same pricing and method choice dynamic programming uses), and move between
neighbors obtained by swapping two positions.

* **Iterative improvement** — repeated random restarts, each descending
  to a local minimum by accepting only improving swaps.
* **Simulated annealing** — one long walk accepting uphill moves with
  probability ``exp(-delta / temperature)`` under geometric cooling.

Exponential DP is exact but explodes past ~13 relations; these run in
O(restarts * moves * n) and plug into the same :class:`Optimizer` facade
(``enumerator="random"`` / ``"annealing"``).  All randomness flows through
an explicit seed, so results are reproducible.
"""

from __future__ import annotations

import math
import random
from typing import List, Mapping, Optional, Sequence, Tuple

from ..core.estimator import JoinSizeEstimator
from ..errors import OptimizationError
from .cost import CostModel, _columns, _Input
from .enumerate import _JOIN_COST, _build_scans, _Candidate, _choose, _joined
from .plans import JoinMethod, PlanNode

__all__ = ["cost_of_order", "enumerate_iterative_improvement", "enumerate_annealing"]

DEFAULT_METHODS = (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE)


def cost_of_order(
    order: Sequence[str],
    scans: Mapping[str, _Candidate],
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    methods: Sequence[JoinMethod],
) -> Optional[_Candidate]:
    """Build the best left-deep plan for a fixed join order.

    Each step picks the cheapest applicable join method; the estimator is
    walked incrementally along the order exactly as in the DP.  The walk
    fixes every step's inputs before any method is chosen, so all of the
    order's joins are priced in one pass of the batched cost formulas.
    Returns ``None`` when some step has no applicable method (cannot
    happen with nested loops in the repertoire, since NL accepts cartesian
    steps).
    """
    first = scans[order[0]]
    state, width = first.state, first.plan.row_width
    steps = []
    terms = [first.terms]
    for relation in order[1:]:
        inner = scans[relation]
        state, step = estimator.join(state, relation)
        width += inner.plan.row_width
        steps.append((inner, state, step.eligible, width))
        terms.append(cost_model._input(state.rows, width))
    outer_terms = _Input(*_columns(terms[:-1]))
    inner_terms = _Input(*_columns([inner.terms for inner, _, _, _ in steps]))
    join_costs = [
        _JOIN_COST[method](cost_model, outer_terms, inner_terms).tolist()
        for method in methods
    ]
    candidate = first
    for k, (inner, state, eligible, width) in enumerate(steps):
        method, total = _choose(
            methods,
            [costs[k] for costs in join_costs],
            candidate.cost + inner.cost,
            cost_model.output_cost(state.rows, width),
            eligible,
        )
        if method is None:
            return None
        candidate = _joined(candidate, inner, method, total, state, eligible, terms[k + 1])
    return candidate


def _random_connected_order(
    relations: List[str], estimator: JoinSizeEstimator, rng: random.Random
) -> List[str]:
    """A random order that prefers connected extensions (few cartesians)."""
    remaining = list(relations)
    rng.shuffle(remaining)
    order = [remaining.pop(0)]
    joined = frozenset(order)
    while remaining:
        connected = [r for r in remaining if estimator.eligible(joined, r)]
        pool = connected or remaining
        chosen = rng.choice(pool)
        remaining.remove(chosen)
        order.append(chosen)
        joined = joined | {chosen}
    return order


def _neighbor(order: List[str], rng: random.Random) -> List[str]:
    """Swap two random positions (the classic 'swap' move)."""
    i, j = rng.sample(range(len(order)), 2)
    neighbor = list(order)
    neighbor[i], neighbor[j] = neighbor[j], neighbor[i]
    return neighbor


def enumerate_iterative_improvement(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
    methods: Sequence[JoinMethod] = DEFAULT_METHODS,
    seed: int = 0,
    restarts: int = 8,
    max_stale_moves: int = 50,
) -> PlanNode:
    """Iterative improvement over left-deep join orders.

    Args:
        estimator: Prepared join-size estimator (any algorithm config).
        cost_model: Page-based cost model.
        widths: Row widths per relation.
        original_rows: Unfiltered row counts per relation (scan costs).
        methods: Join method repertoire.
        seed: Randomness seed (reproducible searches).
        restarts: Number of random starting orders.
        max_stale_moves: Consecutive non-improving swaps before a restart
            is declared locally optimal.

    Raises:
        OptimizationError: for an empty query or if no order is costable.
    """
    relations = list(estimator.query.tables)
    if not relations:
        raise OptimizationError("cannot optimize a query with no tables")
    scans = _build_scans(estimator, cost_model, widths, original_rows)
    if len(relations) == 1:
        return scans[relations[0]].plan

    rng = random.Random(seed)
    best: Optional[_Candidate] = None
    for _ in range(max(1, restarts)):
        order = _random_connected_order(relations, estimator, rng)
        current = cost_of_order(order, scans, estimator, cost_model, methods)
        if current is None:
            continue
        stale = 0
        while stale < max_stale_moves:
            neighbor_order = _neighbor(order, rng)
            neighbor = cost_of_order(
                neighbor_order, scans, estimator, cost_model, methods
            )
            if neighbor is not None and neighbor.cost < current.cost:
                order, current = neighbor_order, neighbor
                stale = 0
            else:
                stale += 1
        if best is None or current.cost < best.cost:
            best = current
    if best is None:
        raise OptimizationError("iterative improvement found no costable order")
    return best.plan


def enumerate_annealing(
    estimator: JoinSizeEstimator,
    cost_model: CostModel,
    widths: Mapping[str, int],
    original_rows: Mapping[str, int],
    methods: Sequence[JoinMethod] = DEFAULT_METHODS,
    seed: int = 0,
    initial_temperature_factor: float = 0.1,
    cooling: float = 0.95,
    moves_per_temperature: int = 20,
    frozen_temperature_ratio: float = 1e-4,
) -> PlanNode:
    """Simulated annealing over left-deep join orders (after [14, 5]).

    The initial temperature is ``initial_temperature_factor`` times the
    starting order's cost, cooled geometrically; uphill swaps are accepted
    with probability ``exp(-delta / T)``.  The best order ever visited is
    returned (not merely the final one).

    Raises:
        OptimizationError: on a query with no tables or when no valid
            starting order exists.
    """
    relations = list(estimator.query.tables)
    if not relations:
        raise OptimizationError("cannot optimize a query with no tables")
    scans = _build_scans(estimator, cost_model, widths, original_rows)
    if len(relations) == 1:
        return scans[relations[0]].plan

    rng = random.Random(seed)
    order = _random_connected_order(relations, estimator, rng)
    current = cost_of_order(order, scans, estimator, cost_model, methods)
    if current is None:
        raise OptimizationError("annealing found no costable starting order")
    best = current
    temperature = max(current.cost * initial_temperature_factor, 1e-9)
    floor = temperature * frozen_temperature_ratio
    while temperature > floor:
        for _ in range(moves_per_temperature):
            neighbor_order = _neighbor(order, rng)
            neighbor = cost_of_order(
                neighbor_order, scans, estimator, cost_model, methods
            )
            if neighbor is None:
                continue
            delta = neighbor.cost - current.cost
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                order, current = neighbor_order, neighbor
                if current.cost < best.cost:
                    best = current
        temperature *= cooling
    return best.plan
