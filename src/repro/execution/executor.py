"""Plan execution against the in-memory storage engine.

The executor turns a physical plan from the optimizer into an operator tree
and runs it, returning the *true* result (rows or COUNT) together with
:class:`~repro.execution.metrics.ExecutionMetrics`.  It never looks at the
catalog or any estimate, so measured result sizes and times are honest
ground truth for the estimators — this separation is what lets the
benchmark tables print "estimated vs actual" columns.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ExecutionError, InvalidEngineError
from ..optimizer.plans import JoinMethod, JoinPlan, PlanNode, ScanPlan
from ..resilience.deadline import Deadline
from ..sql.predicates import ColumnRef
from ..sql.query import Projection
from ..storage.database import Database
from .columnar import (
    BlockBridgeOp,
    ColumnarFilterOp,
    ColumnarHashJoinOp,
    ColumnarOperator,
    ColumnarProjectOp,
    ColumnarTableScanOp,
    RowBridgeOp,
)
from .layout import split_join_condition
from .metrics import ExecutionMetrics
from .operators import (
    FilterOp,
    HashJoinOp,
    NestedLoopJoinOp,
    Operator,
    ProjectOp,
    SortMergeJoinOp,
    TableScanOp,
)
from .parallel import DEFAULT_MORSEL_ROWS, FusedScanFilterOp, ParallelHashJoinOp

__all__ = ["ENGINES", "ExecutionResult", "Executor", "validate_engine"]

Row = Tuple

#: The execution engines: classic row-at-a-time, columnar vectorized, and
#: morsel-parallel columnar (:mod:`repro.execution.parallel`).
ENGINES = ("row", "columnar", "parallel")


def validate_engine(engine: str) -> str:
    """Return ``engine`` if it names a known execution engine.

    Raises:
        InvalidEngineError: structured rejection carrying the valid
            choices, raised at configuration time — not deep inside
            operator construction.
    """
    if engine not in ENGINES:
        raise InvalidEngineError(engine, ENGINES)
    return engine


@dataclass
class ExecutionResult:
    """Output of one plan execution."""

    rows: List[Row]
    columns: Tuple[ColumnRef, ...]
    count: int
    metrics: ExecutionMetrics

    @property
    def wall_seconds(self) -> float:
        return self.metrics.wall_seconds


class Executor:
    """Executes physical plans against a :class:`Database`.

    Args:
        database: Stored tables (must contain every base table any plan
            references).
        page_size: Page size used for the *simulated* I/O counters; has no
            effect on results.
        buffer_pages: Buffer pool size for the nested-loops I/O simulation.
        engine: ``"row"`` for the classic tuple-at-a-time operators,
            ``"columnar"`` for the vectorized engine
            (:mod:`repro.execution.columnar`), ``"parallel"`` for the
            morsel-driven tier (:mod:`repro.execution.parallel`).  All
            three produce identical row multisets, counts, and operator
            statistics.  The columnar engine is several times faster than
            row only on hash-join plans, such as the COUNT(*) ground-truth
            reference plans; it runs nested-loops and sort-merge joins on
            the row operators behind bridges, so on the optimizer's
            nested-loops/sort-merge plans it is slower than row.  The
            parallel engine adds
            index/fused/fan-out probe strategies on top of columnar.
        deadline: Optional cooperative cancellation budget
            (:class:`~repro.resilience.deadline.Deadline`).  Operators
            check it as rows flow; an expired budget aborts the run with
            :class:`~repro.errors.DeadlineExceededError`.
        morsel_workers: Process fan-out width for the parallel engine
            (``None`` means one worker per CPU).  Ignored by the row and
            columnar engines.
        morsel_rows: Rows per morsel for the parallel engine's scheduling,
            deadline ticks, and fan-out tasks.
    """

    def __init__(
        self,
        database: Database,
        page_size: int = 4096,
        buffer_pages: int = 64,
        engine: str = "row",
        deadline: Optional[Deadline] = None,
        morsel_workers: Optional[int] = None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
    ) -> None:
        self._engine = validate_engine(engine)
        if morsel_workers is None:
            morsel_workers = os.cpu_count() or 1
        if morsel_workers < 1:
            raise ExecutionError(
                f"morsel_workers must be at least 1, got {morsel_workers}"
            )
        self._database = database
        self._page_size = page_size
        self._buffer_pages = buffer_pages
        self._deadline = deadline
        self._morsel_workers = morsel_workers
        self._morsel_rows = morsel_rows

    @property
    def engine(self) -> str:
        return self._engine

    @property
    def morsel_workers(self) -> int:
        return self._morsel_workers

    def execute(
        self, plan: PlanNode, projection: Optional[Projection] = None
    ) -> ExecutionResult:
        """Run a plan, applying the projection at the top.

        Supports all three projection shapes: column lists (project),
        ``COUNT(*)`` (count only), and aggregate lists with optional GROUP
        BY (hash aggregation).  For aggregate projections, ``count`` is
        the number of *input* rows that reached the aggregate — the join's
        cardinality, which is what estimation experiments compare against.
        On the row engine a ``COUNT(*)`` asks the root operator for
        :meth:`~repro.execution.operators.Operator.count`: a root join
        counts its matches without building their tuples, with the same
        operator statistics and deadline ticks as materializing them.
        """
        metrics = ExecutionMetrics(deadline=self._deadline)
        started = time.perf_counter()
        if self._engine == "columnar":
            return self._execute_columnar(plan, projection, metrics, started)
        if self._engine == "parallel":
            return self._execute_parallel(plan, projection, metrics, started)
        root = self._build(plan, metrics)
        if projection is not None and projection.aggregates:
            root = self._build_aggregate(root, projection, metrics)
            rows = root.rows()
            metrics.wall_seconds = time.perf_counter() - started
            count = root.stats.rows_in
            return ExecutionResult(
                rows=rows, columns=root.layout.columns, count=count, metrics=metrics
            )
        if projection is not None and projection.count_star:
            rows: List[Row] = []
            count = root.count()
        else:
            if projection is not None and projection.columns:
                root = ProjectOp(root, projection.columns, metrics)
            # Operators may hand back their frozen materialization; the
            # result contract is a list the caller owns.
            rows = list(root.rows())
            count = len(rows)
        metrics.wall_seconds = time.perf_counter() - started
        return ExecutionResult(
            rows=rows, columns=root.layout.columns, count=count, metrics=metrics
        )

    def _build_aggregate(
        self, root: Operator, projection: Projection, metrics: ExecutionMetrics
    ) -> Operator:
        from .aggregate import AggregateFunction, AggregateSpec, HashAggregateOp

        specs = [
            AggregateSpec(AggregateFunction(a.function), a.column)
            for a in projection.aggregates
        ]
        return HashAggregateOp(root, projection.group_by, specs, metrics)

    def count(self, plan: PlanNode) -> ExecutionResult:
        """Run a plan as ``SELECT COUNT(*)``: ``rows`` is empty.

        Every engine counts without materializing the root's output (the
        row engine through ``Operator.count``, the columnar engines from
        the root block's row count).
        """
        return self.execute(plan, Projection(count_star=True))

    # -- columnar engine -------------------------------------------------

    def _execute_columnar(
        self,
        plan: PlanNode,
        projection: Optional[Projection],
        metrics: ExecutionMetrics,
        started: float,
        build: Optional[Callable[[PlanNode, ExecutionMetrics], ColumnarOperator]] = None,
    ) -> ExecutionResult:
        if build is None:
            build = self._build_columnar
        root = build(plan, metrics)
        if projection is not None and projection.aggregates:
            # Aggregation runs on the row operator (one implementation of
            # aggregate semantics); the bridge is invisible in metrics.
            agg = self._build_aggregate(RowBridgeOp(root), projection, metrics)
            rows = agg.rows()
            metrics.wall_seconds = time.perf_counter() - started
            count = agg.stats.rows_in
            return ExecutionResult(
                rows=rows, columns=agg.layout.columns, count=count, metrics=metrics
            )
        if projection is not None and projection.columns:
            root = ColumnarProjectOp(root, projection.columns, metrics)
        block = root.block()
        if projection is not None and projection.count_star:
            # The COUNT(*) fast path: the count is the root block's row
            # count — no output tuple is ever materialized.
            metrics.wall_seconds = time.perf_counter() - started
            return ExecutionResult(
                rows=[],
                columns=root.layout.columns,
                count=block.num_rows,
                metrics=metrics,
            )
        # tuples() is the block's frozen materialization; the result
        # contract is a list the caller owns.
        rows = list(block.tuples())
        metrics.wall_seconds = time.perf_counter() - started
        return ExecutionResult(
            rows=rows, columns=root.layout.columns, count=len(rows), metrics=metrics
        )

    def _build_columnar(
        self, plan: PlanNode, metrics: ExecutionMetrics
    ) -> ColumnarOperator:
        if isinstance(plan, ScanPlan):
            return self._build_columnar_scan(plan, metrics)
        if isinstance(plan, JoinPlan):
            return self._build_columnar_join(plan, metrics)
        raise ExecutionError(f"unknown plan node {plan!r}")

    def _build_columnar_scan(
        self, plan: ScanPlan, metrics: ExecutionMetrics
    ) -> ColumnarOperator:
        table = self._database.table(plan.base_table)
        pages = _page_count(
            table.row_count, table.schema.row_width_bytes, self._page_size
        )
        scan: ColumnarOperator = ColumnarTableScanOp(
            relation=plan.relation,
            column_names=table.schema.column_names,
            columns=table.columns(),
            metrics=metrics,
            pages=pages,
        )
        if plan.local_predicates:
            scan = ColumnarFilterOp(scan, plan.local_predicates, metrics)
        return scan

    def _build_columnar_join(
        self, plan: JoinPlan, metrics: ExecutionMetrics
    ) -> ColumnarOperator:
        left = self._build_columnar(plan.left, metrics)
        right = self._build_columnar(plan.right, metrics)
        if plan.method is JoinMethod.HASH:
            condition = split_join_condition(
                plan.predicates, left.layout, right.layout
            )
            if condition.keys and not condition.has_residual:
                return ColumnarHashJoinOp(left, right, plan.predicates, metrics)
        # Fallback: nested loops, sort-merge, and hash joins with non-equi
        # residuals run on the row operators between invisible bridges.
        row_join = self._join_operator(
            plan, RowBridgeOp(left), RowBridgeOp(right), metrics
        )
        return BlockBridgeOp(row_join)

    # -- parallel engine -------------------------------------------------

    def _execute_parallel(
        self,
        plan: PlanNode,
        projection: Optional[Projection],
        metrics: ExecutionMetrics,
        started: float,
    ) -> ExecutionResult:
        if (
            isinstance(plan, ScanPlan)
            and projection is not None
            and projection.columns
            and not projection.aggregates
        ):
            # Single-table plans fuse the whole scan -> filter -> project
            # chain into one morsel-streaming operator.
            root = self._build_parallel_scan(
                plan, metrics, project_columns=projection.columns
            )
            rows = list(root.block().tuples())
            metrics.wall_seconds = time.perf_counter() - started
            return ExecutionResult(
                rows=rows,
                columns=root.layout.columns,
                count=len(rows),
                metrics=metrics,
            )
        return self._execute_columnar(
            plan, projection, metrics, started, build=self._build_parallel
        )

    def _build_parallel(
        self, plan: PlanNode, metrics: ExecutionMetrics
    ) -> ColumnarOperator:
        if isinstance(plan, ScanPlan):
            return self._build_parallel_scan(plan, metrics)
        if isinstance(plan, JoinPlan):
            return self._build_parallel_join(plan, metrics)
        raise ExecutionError(f"unknown plan node {plan!r}")

    def _build_parallel_scan(
        self,
        plan: ScanPlan,
        metrics: ExecutionMetrics,
        project_columns: Optional[Sequence[ColumnRef]] = None,
    ) -> ColumnarOperator:
        table = self._database.table(plan.base_table)
        pages = _page_count(
            table.row_count, table.schema.row_width_bytes, self._page_size
        )
        return FusedScanFilterOp(
            relation=plan.relation,
            table=table,
            metrics=metrics,
            pages=pages,
            predicates=plan.local_predicates,
            project_columns=project_columns,
            morsel_rows=self._morsel_rows,
        )

    def _build_parallel_join(
        self, plan: JoinPlan, metrics: ExecutionMetrics
    ) -> ColumnarOperator:
        left = self._build_parallel(plan.left, metrics)
        right = self._build_parallel(plan.right, metrics)
        if plan.method is JoinMethod.HASH:
            condition = split_join_condition(
                plan.predicates, left.layout, right.layout
            )
            if condition.keys and not condition.has_residual:
                return ParallelHashJoinOp(
                    left,
                    right,
                    plan.predicates,
                    metrics,
                    morsel_workers=self._morsel_workers,
                    morsel_rows=self._morsel_rows,
                )
        # Same fallback as the columnar engine: the row operators are the
        # single source of truth for non-equi and non-hash joins.
        row_join = self._join_operator(
            plan, RowBridgeOp(left), RowBridgeOp(right), metrics
        )
        return BlockBridgeOp(row_join)

    # -- internals -------------------------------------------------------

    def _build(self, plan: PlanNode, metrics: ExecutionMetrics) -> Operator:
        if isinstance(plan, ScanPlan):
            return self._build_scan(plan, metrics)
        if isinstance(plan, JoinPlan):
            return self._build_join(plan, metrics)
        raise ExecutionError(f"unknown plan node {plan!r}")

    def _build_scan(self, plan: ScanPlan, metrics: ExecutionMetrics) -> Operator:
        table = self._database.table(plan.base_table)
        pages = _page_count(
            table.row_count, table.schema.row_width_bytes, self._page_size
        )
        scan: Operator = TableScanOp(
            relation=plan.relation,
            column_names=table.schema.column_names,
            source_rows=table.scan(),
            metrics=metrics,
            pages=pages,
            table=table,
        )
        if plan.local_predicates:
            scan = FilterOp(scan, plan.local_predicates, metrics)
        return scan

    def _build_join(self, plan: JoinPlan, metrics: ExecutionMetrics) -> Operator:
        left = self._build(plan.left, metrics)
        right = self._build(plan.right, metrics)
        return self._join_operator(plan, left, right, metrics)

    def _join_operator(
        self,
        plan: JoinPlan,
        left: Operator,
        right: Operator,
        metrics: ExecutionMetrics,
    ) -> Operator:
        if plan.method is JoinMethod.NESTED_LOOPS:
            return NestedLoopJoinOp(
                left,
                right,
                plan.predicates,
                metrics,
                outer_row_width=plan.left.row_width,
                inner_row_width=plan.right.row_width,
                page_size=self._page_size,
                buffer_pages=self._buffer_pages,
            )
        if plan.method is JoinMethod.SORT_MERGE:
            return SortMergeJoinOp(
                left,
                right,
                plan.predicates,
                metrics,
                left_row_width=plan.left.row_width,
                right_row_width=plan.right.row_width,
                page_size=self._page_size,
            )
        if plan.method is JoinMethod.HASH:
            return HashJoinOp(left, right, plan.predicates, metrics)
        raise ExecutionError(f"unknown join method {plan.method!r}")


def _page_count(rows: int, row_width: int, page_size: int) -> float:
    if rows <= 0:
        return 0.0
    per_page = max(1, page_size // max(1, row_width))
    return -(-rows // per_page)  # ceiling division
