"""Shared estimation-accuracy harness used by benchmarks and examples.

Wires the pieces together for one workload: generate data, ANALYZE,
estimate with each configured algorithm, execute for ground truth, and
report per-algorithm errors.  The four named algorithm setups match the
rows of the paper's Section 8 table.

:func:`evaluate_workloads` runs that pipeline over a list of workloads in
one serial loop.  Workload ``i`` always generates its data from seed
``seed + i``, so the output is a pure function of the inputs.  A workload
whose ground truth overruns its optional deadline (``timeout_s``) degrades
to estimate-only records (``degraded=True``, ``actual=None``) instead of
aborting the sweep; any other library error is re-raised as a
:class:`~repro.errors.WorkloadError` naming the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.config import ELS, SM, SSS, EstimatorConfig
from ..core.estimator import build_estimators
from ..errors import DeadlineExceededError, ReproError, WorkloadError
from ..execution.executor import validate_engine
from ..sql.predicates import ComparisonPredicate
from ..sql.query import Projection, Query
from ..storage.database import Database
from ..workloads.generator import build_database
from ..workloads.queries import GeneratedWorkload
from .metrics import q_error, ratio_error
from .truth import true_join_size

__all__ = [
    "AlgorithmSpec",
    "PAPER_ALGORITHMS",
    "AccuracyRecord",
    "prefix_query",
    "evaluate_workload",
    "evaluate_workloads",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named estimation setup: configuration plus the PTC toggle."""

    name: str
    config: EstimatorConfig
    apply_closure: bool = True


#: The four experimental setups of the paper's Section 8 table.
PAPER_ALGORITHMS: Tuple[AlgorithmSpec, ...] = (
    AlgorithmSpec("SM (no PTC)", SM, apply_closure=False),
    AlgorithmSpec("SM + PTC", SM),
    AlgorithmSpec("SSS + PTC", SSS),
    AlgorithmSpec("ELS", ELS),
)


@dataclass(frozen=True)
class AccuracyRecord:
    """One (workload, algorithm) estimation outcome.

    ``actual`` is ``None`` — and ``degraded`` is ``True`` — when the
    ground truth could not be computed within its deadline; the estimate
    is still recorded so a sweep degrades instead of dying.  ``failure``
    then carries the deadline error's message.  Degraded
    records should be excluded from accuracy aggregates (their error
    metrics are NaN by construction).
    """

    algorithm: str
    estimate: float
    actual: Optional[int]
    degraded: bool = False
    failure: Optional[str] = None

    @property
    def q_error(self) -> float:
        if self.actual is None:
            return float("nan")
        return q_error(self.estimate, self.actual)

    @property
    def ratio(self) -> float:
        if self.actual is None:
            return float("nan")
        return ratio_error(self.estimate, self.actual)


def prefix_query(query: Query, tables: Sequence[str]) -> Query:
    """The sub-query over a prefix of the tables (for incremental studies).

    Keeps every predicate whose tables all fall inside the prefix; the
    projection becomes COUNT(*) since only the cardinality matters.
    """
    subset = set(tables)
    predicates: List[ComparisonPredicate] = [
        p for p in query.predicates if p.tables <= subset
    ]
    aliases = {t: query.base_table(t) for t in tables}
    return Query.build(tables, predicates, Projection(count_star=True), aliases)


def _estimate_records(
    workload: GeneratedWorkload,
    algorithms: Iterable[AlgorithmSpec],
    database: Database,
    order: Optional[Sequence[str]],
    check_invariants: bool,
    actual: Optional[int],
    failure: Optional[str] = None,
) -> List[AccuracyRecord]:
    """Run every estimator once and pair it with the (maybe absent) truth.

    The estimators come from one :func:`~repro.core.estimator.build_estimators`
    call, so the setups share the query's preliminary phase: closure runs
    once per closure flag, and setups reading the same configuration fields
    (SM+PTC and SSS+PTC) share effective statistics and selectivities.
    Each estimate equals the one a separate ``JoinSizeEstimator`` gives.
    """
    join_order = list(order) if order is not None else list(workload.query.tables)
    specs = list(algorithms)
    setups = [
        (
            spec.config.but(check_invariants=True) if check_invariants else spec.config,
            spec.apply_closure,
        )
        for spec in specs
    ]
    estimators = build_estimators(workload.query, database.catalog, setups)
    return [
        AccuracyRecord(
            spec.name,
            estimator.estimate(join_order),
            actual,
            degraded=actual is None,
            failure=failure,
        )
        for spec, estimator in zip(specs, estimators)
    ]


def evaluate_workload(
    workload: GeneratedWorkload,
    algorithms: Iterable[AlgorithmSpec] = PAPER_ALGORITHMS,
    seed: int = 0,
    order: Optional[Sequence[str]] = None,
    database: Optional[Database] = None,
    check_invariants: bool = False,
    engine: str = "columnar",
    timeout_s: Optional[float] = None,
) -> List[AccuracyRecord]:
    """Estimate-vs-truth comparison for one workload.

    Args:
        workload: The specs and query to evaluate.
        algorithms: Estimation setups to compare.
        seed: Data-generation seed (ignored when ``database`` is given).
        order: Join order the estimators walk; defaults to FROM-clause
            order, which is connected for chains/stars/cliques.
        database: Reuse an already generated database.
        check_invariants: Run the layer-2 semantic diagnostics
            (:mod:`repro.lint.semantic`) inside every estimator build, so a
            benchmark over a query that violates the paper's invariants
            fails loudly (:class:`repro.errors.DiagnosticError`) instead of
            reporting numbers from a broken premise.
        engine: Execution engine for the ground truth's reference-plan
            fallback (cyclic or non-equi joins; every engine yields the
            same count); acyclic equi-joins are counted exactly without
            an engine.
        timeout_s: Optional wall-clock budget for the ground-truth
            execution; when spent, the run aborts with
            :class:`~repro.errors.DeadlineExceededError` (the *sweep*
            driver :func:`evaluate_workloads` turns that into a degraded
            record instead).
    """
    db = database if database is not None else build_database(workload.specs, seed)
    actual = true_join_size(workload.query, db, engine=engine, timeout_s=timeout_s)
    return _estimate_records(
        workload, algorithms, db, order, check_invariants, actual
    )


def evaluate_workloads(  # els: hot=yes
    workloads: Sequence[GeneratedWorkload],
    algorithms: Iterable[AlgorithmSpec] = PAPER_ALGORITHMS,
    seed: int = 0,
    check_invariants: bool = False,
    engine: str = "columnar",
    timeout_s: Optional[float] = None,
) -> List[List[AccuracyRecord]]:
    """Evaluate many workloads in order, one after another.

    Workload ``i`` always generates its database from seed ``seed + i``,
    so the output is a pure function of ``(workloads, algorithms, seed)``
    and equals the per-workload :func:`evaluate_workload` calls.

    A workload whose ground truth exceeds ``timeout_s`` degrades to
    estimator-only records (``degraded=True``, ``actual=None``) from the
    same database instead of aborting the sweep; any other library error
    surfaces as :class:`WorkloadError` naming the workload's index and
    tables.

    Args:
        workloads: The workloads to evaluate, in order.
        algorithms: Estimation setups compared for each workload.
        seed: Base data-generation seed.
        check_invariants: As in :func:`evaluate_workload`.
        engine: Engine for the ground truth's reference-plan fallback,
            as in :func:`evaluate_workload`.
        timeout_s: Per-workload wall-clock budget for ground truth.

    Raises:
        WorkloadError: when generating, counting or estimating a workload
            fails with a library error other than an expired deadline.
    """
    validate_engine(engine)
    specs = tuple(algorithms)
    results: List[List[AccuracyRecord]] = []
    for index, workload in enumerate(workloads):
        try:
            database = build_database(workload.specs, seed + index)
            try:
                records = evaluate_workload(
                    workload,
                    specs,
                    database=database,
                    check_invariants=check_invariants,
                    engine=engine,
                    timeout_s=timeout_s,
                )
            except DeadlineExceededError as exc:
                records = _estimate_records(
                    workload, specs, database, None, check_invariants, None, str(exc)
                )
        except ReproError as exc:
            raise WorkloadError(
                str(exc), index=index, description=" >< ".join(workload.tables)
            ) from exc
        results.append(records)
    return results
