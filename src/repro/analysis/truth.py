"""Ground-truth join sizes by actually executing reference plans.

The estimators are judged against *executed* result sizes, never against
each other.  The reference plan built here is deliberately independent of
the optimizer: scans with all local predicates pushed down, then hash joins
(nested loops when no equi-key exists) in a size-aware greedy order.  Any
correct plan yields the same count, so the choice only affects how long the
ground truth takes to compute.

Two layers keep that cost down on the hot path:

* ground truths execute on the **columnar vectorized engine** by default
  (``engine="columnar"``; the differential test suite proves it
  count-identical to the row engine), and
* :func:`true_join_size` consults the **ground-truth cache**
  (:mod:`repro.analysis.truthcache`) keyed by database fingerprint and
  canonical query text, so an identical join is never executed twice in a
  process.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..execution.executor import ExecutionResult, Executor
from ..optimizer.plans import JoinMethod, JoinPlan, PlanNode, ScanPlan
from ..resilience.deadline import Deadline
from ..sql.predicates import ComparisonPredicate, Op
from ..sql.query import Query
from ..storage.database import Database
from .truthcache import DEFAULT_TRUTH_CACHE, TruthCache

__all__ = ["build_reference_plan", "execute_query", "true_join_size"]


def _resolve_deadline(
    timeout_s: Optional[float], deadline: Optional[Deadline]
) -> Optional[Deadline]:
    """An explicit deadline wins; else a fresh one from ``timeout_s``."""
    if deadline is not None:
        return deadline
    if timeout_s is not None:
        return Deadline(timeout_s)
    return None


def _eligible(
    predicates: Sequence[ComparisonPredicate], joined: FrozenSet[str], table: str
) -> Tuple[ComparisonPredicate, ...]:
    result = []
    for predicate in predicates:
        if predicate.is_join and table in predicate.tables:
            if (predicate.tables - {table}) <= joined:
                result.append(predicate)
    return tuple(result)


def _scan(query: Query, database: Database, relation: str) -> ScanPlan:
    base = query.base_table(relation)
    table = database.table(base)
    local = tuple(
        p for p in query.predicates if p.is_local and p.references(relation)
    )
    return ScanPlan(
        relation=relation,
        base_table=base,
        local_predicates=local,
        estimated_rows=float(table.row_count),
        estimated_cost=0.0,
        row_width=table.schema.row_width_bytes,
    )


def build_reference_plan(
    query: Query, database: Database, order: Optional[Sequence[str]] = None
) -> PlanNode:
    """A correct left-deep plan for ground-truth execution.

    Args:
        query: The (possibly closure-rewritten) query.
        database: Stored tables.
        order: Explicit join order; default is a greedy order that starts
            from the smallest table and prefers connected extensions, which
            keeps intermediates small on the library's workloads.

    Raises:
        ExecutionError: if ``order`` is not a permutation of the query's
            tables.
    """
    relations = list(query.tables)
    if order is not None:
        if sorted(order) != sorted(relations):
            raise ExecutionError(
                f"order {list(order)} is not a permutation of {relations}"
            )
        sequence = list(order)
    else:
        sequence = _greedy_order(query, database)

    plan: PlanNode = _scan(query, database, sequence[0])
    joined = frozenset((sequence[0],))
    for relation in sequence[1:]:
        eligible = _eligible(query.predicates, joined, relation)
        has_equi = any(p.op is Op.EQ for p in eligible)
        method = JoinMethod.HASH if has_equi else JoinMethod.NESTED_LOOPS
        right = _scan(query, database, relation)
        plan = JoinPlan(
            left=plan,
            right=right,
            method=method,
            predicates=eligible,
            estimated_rows=0.0,
            estimated_cost=0.0,
            row_width=plan.row_width + right.row_width,
        )
        joined = joined | {relation}
    return plan


def _greedy_order(query: Query, database: Database) -> List[str]:
    """Smallest-table-first order preferring connected extensions."""
    sizes = {
        relation: database.table(query.base_table(relation)).row_count
        for relation in query.tables
    }
    rank = lambda r: (sizes[r], r)
    remaining = sorted(query.tables, key=rank)
    order = [remaining.pop(0)]
    joined = frozenset(order)
    while remaining:
        connected = [
            r for r in remaining if _eligible(query.predicates, joined, r)
        ]
        pool = connected or remaining
        chosen = min(pool, key=rank)
        remaining.remove(chosen)
        order.append(chosen)
        joined = joined | {chosen}
    return order


def execute_query(
    query: Query,
    database: Database,
    order: Optional[Sequence[str]] = None,
    engine: str = "columnar",
    timeout_s: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    morsel_workers: Optional[int] = None,
) -> ExecutionResult:
    """Execute a query via the reference plan, honoring its projection.

    Args:
        query: The query to execute.
        database: Stored tables.
        order: Explicit join order for the reference plan.
        engine: Execution engine (``"row"``, ``"columnar"``, or
            ``"parallel"``).
        timeout_s: Optional wall-clock budget; the executors check it
            cooperatively and raise
            :class:`~repro.errors.DeadlineExceededError` when spent.
        deadline: An already-running :class:`Deadline` to honor instead
            (wins over ``timeout_s``; lets callers share one budget across
            several executions).
        morsel_workers: Fan-out width for the ``"parallel"`` engine
            (``None`` means one per CPU); ignored by the other engines.
    """
    plan = build_reference_plan(query, database, order)
    executor = Executor(
        database,
        engine=engine,
        deadline=_resolve_deadline(timeout_s, deadline),
        morsel_workers=morsel_workers,
    )
    return executor.execute(plan, query.projection)


def true_join_size(
    query: Query,
    database: Database,
    order: Optional[Sequence[str]] = None,
    engine: str = "columnar",
    cache: Optional[TruthCache] = DEFAULT_TRUTH_CACHE,
    timeout_s: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    morsel_workers: Optional[int] = None,
) -> int:
    """The exact result cardinality of the query's join.

    Args:
        query: The query whose join size to execute.
        database: Stored tables.
        order: Explicit join order for the reference plan (does not affect
            the count, only execution time).
        engine: Execution engine; the vectorized ``"columnar"`` default is
            several times faster than ``"row"`` on these COUNT ground
            truths because the reference plan is all hash joins (on
            sort-merge or nested-loops plans columnar runs the row
            operators behind bridges and is slower), and ``"parallel"``
            adds the morsel-driven tier on top.
        cache: Ground-truth cache to consult and fill; defaults to the
            process-wide :data:`~repro.analysis.truthcache.DEFAULT_TRUTH_CACHE`.
            Pass ``None`` to force execution.
        timeout_s: Optional wall-clock budget for the execution; cache
            hits never consume it.  When spent, the run aborts with
            :class:`~repro.errors.DeadlineExceededError`.
        deadline: An already-running :class:`Deadline` to honor instead
            (wins over ``timeout_s``).
        morsel_workers: Fan-out width for the ``"parallel"`` engine
            (``None`` means one per CPU); ignored by the other engines
            and deliberately absent from the cache key — worker count
            never changes the count, only how fast it is computed.
    """
    if cache is not None:
        cached = cache.get(database, query)
        if cached is not None:
            return cached
    plan = build_reference_plan(query, database, order)
    executor = Executor(
        database,
        engine=engine,
        deadline=_resolve_deadline(timeout_s, deadline),
        morsel_workers=morsel_workers,
    )
    count = executor.count(plan).count
    if cache is not None:
        cache.put(database, query, count)
    return int(count)
