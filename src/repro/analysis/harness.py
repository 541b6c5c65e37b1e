"""Shared estimation-accuracy harness used by benchmarks and examples.

Wires the pieces together for one workload: generate data, ANALYZE,
estimate with each configured algorithm, execute for ground truth, and
report per-algorithm errors.  The four named algorithm setups match the
rows of the paper's Section 8 table.

For sweeps over many workloads, :func:`evaluate_workloads` fans the
per-workload pipeline across a :mod:`multiprocessing` pool.  Results are
deterministic regardless of worker count: workload ``i`` always generates
its data from seed ``seed + i`` and results are returned in input order,
so ``workers=8`` and ``workers=1`` produce byte-identical record lists.

The sweep is also *fault-tolerant* (:mod:`repro.resilience`):

* each payload runs under an optional ground-truth deadline
  (``timeout_s``) checked cooperatively inside the executors;
* transient failures — a crashed worker, an expired deadline — are
  retried under a :class:`~repro.resilience.retry.RetryPolicy` with
  seeded-deterministic backoff, re-spawning the pool if it died;
* a payload whose ground truth never fits the deadline degrades
  gracefully: its records carry ``degraded=True``, ``actual=None``, and
  a machine-readable :class:`~repro.resilience.retry.FailureReport`
  instead of aborting the sweep;
* ``checkpoint_path`` appends completed payloads as JSON lines keyed by
  a content fingerprint, and a restarted sweep skips them;
* a seeded :class:`~repro.resilience.chaos.FaultPlan` (argument or
  ``REPRO_FAULT_PLAN`` environment variable) injects crashes, slow
  executions, and cache corruption for differential chaos testing.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import ELS, SM, SSS, EstimatorConfig
from ..core.estimator import JoinSizeEstimator
from ..errors import DeadlineExceededError, ReproError, WorkloadError
from ..execution.executor import validate_engine
from ..resilience.chaos import FaultPlan, InjectedWorkerCrash
from ..resilience.checkpoint import (
    append_checkpoint,
    fingerprint_of,
    load_checkpoint,
)
from ..resilience.deadline import Deadline
from ..resilience.retry import DEFAULT_RETRY_POLICY, FailureReport, RetryPolicy
from ..sql.predicates import ComparisonPredicate
from ..sql.query import Projection, Query
from ..storage.database import Database
from ..workloads.generator import build_database
from ..workloads.queries import GeneratedWorkload
from .metrics import q_error, ratio_error
from .truth import true_join_size
from .truthcache import DEFAULT_TRUTH_CACHE, canonical_query_text

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
    ground truth could not be computed within its deadline after retries;
    the estimate is still recorded so a sweep degrades instead of dying.
    ``failure`` then carries the machine-readable reason.  Degraded
    records should be excluded from accuracy aggregates (their error
    metrics are NaN by construction).
    """

    algorithm: str
    estimate: float
    actual: Optional[int]
    degraded: bool = False
    failure: Optional[FailureReport] = None

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
    failure: Optional[FailureReport] = None,
) -> List[AccuracyRecord]:
    """Run every estimator once and pair it with the (maybe absent) truth."""
    join_order = list(order) if order is not None else list(workload.query.tables)
    degraded = actual is None
    records: List[AccuracyRecord] = []
    for spec in algorithms:
        config = (
            spec.config.but(check_invariants=True) if check_invariants else spec.config
        )
        estimator = JoinSizeEstimator(
            workload.query, database.catalog, config, spec.apply_closure
        )
        estimate = estimator.estimate(join_order)
        records.append(
            AccuracyRecord(
                spec.name,
                estimate,
                actual,
                degraded=degraded,
                failure=failure if degraded else None,
            )
        )
    return records


def evaluate_workload(
    workload: GeneratedWorkload,
    algorithms: Iterable[AlgorithmSpec] = PAPER_ALGORITHMS,
    seed: int = 0,
    order: Optional[Sequence[str]] = None,
    database: Optional[Database] = None,
    check_invariants: bool = False,
    engine: str = "columnar",
    timeout_s: Optional[float] = None,
    deadline: Optional[Deadline] = None,
    morsel_workers: Optional[int] = None,
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
        deadline: An already-running deadline to honor instead (wins over
            ``timeout_s``).
        morsel_workers: Fan-out width for the ``"parallel"`` engine
            (``None`` means one per CPU); ignored by the other engines.
    """
    db = database if database is not None else build_database(workload.specs, seed)
    actual = true_join_size(
        workload.query,
        db,
        engine=engine,
        timeout_s=timeout_s,
        deadline=deadline,
        morsel_workers=morsel_workers,
    )
    return _estimate_records(
        workload, algorithms, db, order, check_invariants, actual
    )


@dataclass(frozen=True)
class _Payload:
    """One pool task: everything a worker needs to evaluate workload i."""

    index: int
    workload: GeneratedWorkload
    algorithms: Tuple[AlgorithmSpec, ...]
    seed: int
    check_invariants: bool
    engine: str
    timeout_s: Optional[float] = None
    attempt: int = 0
    fault_plan: Optional[FaultPlan] = None
    morsel_workers: Optional[int] = None

    def fingerprint(self) -> str:
        """Content fingerprint for checkpoint keying (attempt-independent;
        ``morsel_workers`` is also excluded — worker count never changes a
        result, so a resumed sweep may reuse checkpoints across widths)."""
        parts = [
            str(self.index),
            str(self.seed),
            self.engine,
            str(self.check_invariants),
            canonical_query_text(self.workload.query),
            repr(self.workload.specs),
        ]
        parts.extend(repr(spec) for spec in self.algorithms)
        return fingerprint_of(parts)

    def description(self) -> str:
        """Short human-readable name for error messages."""
        return " >< ".join(self.workload.tables)


def _apply_faults(payload: _Payload) -> Optional[Database]:
    """Fire this attempt's injected faults; maybe pre-build the database.

    ``slow`` sleeps (burning any deadline budget), ``crash`` raises
    :class:`InjectedWorkerCrash`, and ``corrupt-cache`` builds the
    payload's database, plants its ground-truth cache entry, and tampers
    with it — so the digest-verification path provably runs.  Returns the
    pre-built database when one was needed, else ``None``.
    """
    if payload.fault_plan is None:
        return None
    database: Optional[Database] = None
    for fault in payload.fault_plan.faults_for(payload.index, payload.attempt):
        if fault.kind == "slow":
            time.sleep(fault.delay_s)
        elif fault.kind == "crash":
            raise InjectedWorkerCrash(
                f"injected crash for payload {payload.index} "
                f"attempt {payload.attempt}"
            )
        elif fault.kind == "corrupt-cache":
            if database is None:
                database = build_database(payload.workload.specs, payload.seed)
            DEFAULT_TRUTH_CACHE.put(database, payload.workload.query, 0)
            DEFAULT_TRUTH_CACHE.corrupt(database, payload.workload.query)
    return database


def _evaluate_one(payload: _Payload) -> Tuple[int, str, object]:
    """Pool worker: evaluate one payload, classifying failures as data.

    Returns ``(index, status, data)`` where status is one of

    * ``"ok"`` — data is the record list;
    * ``"crash"`` — an injected worker crash (retryable);
    * ``"deadline"`` — the ground truth exceeded its budget (retryable,
      degradable): data carries message and elapsed seconds;
    * ``"error"`` — a deterministic library error (not retryable);
    * ``"exception"`` — an unexpected error (retryable: it may be
      environmental).

    Failures travel as *data*, never as raised exceptions, so one bad
    payload cannot poison ``imap_unordered`` for the rest of the batch.
    """
    started = time.perf_counter()
    try:
        database = _apply_faults(payload)
        deadline = (
            Deadline(payload.timeout_s) if payload.timeout_s is not None else None
        )
        records = evaluate_workload(
            payload.workload,
            payload.algorithms,
            seed=payload.seed,
            database=database,
            check_invariants=payload.check_invariants,
            engine=payload.engine,
            deadline=deadline,
            morsel_workers=payload.morsel_workers,
        )
        return (payload.index, "ok", records)
    except InjectedWorkerCrash as exc:
        return (payload.index, "crash", str(exc))
    except DeadlineExceededError as exc:
        data = {"message": str(exc), "elapsed_s": time.perf_counter() - started}
        return (payload.index, "deadline", data)
    except ReproError as exc:
        return (payload.index, "error", str(exc))
    except Exception as exc:  # pool workers must never raise: see docstring
        return (payload.index, "exception", f"{type(exc).__name__}: {exc}")


def _degraded_records(
    payload: _Payload, failure: FailureReport
) -> List[AccuracyRecord]:
    """Estimator-only records for a payload whose ground truth timed out."""
    database = build_database(payload.workload.specs, payload.seed)
    return _estimate_records(
        payload.workload,
        payload.algorithms,
        database,
        None,
        payload.check_invariants,
        None,
        failure=failure,
    )


def _record_to_dict(record: AccuracyRecord) -> Dict[str, object]:
    """JSON-friendly record view for checkpoint lines."""
    data: Dict[str, object] = {
        "algorithm": record.algorithm,
        "estimate": record.estimate,
        "actual": record.actual,
        "degraded": record.degraded,
    }
    if record.failure is not None:
        data["failure"] = record.failure.to_dict()
    return data


def _record_from_dict(data: Dict[str, object]) -> AccuracyRecord:
    """Rebuild a record from a checkpoint line (floats round-trip exactly)."""
    actual = data.get("actual")
    failure_data = data.get("failure")
    return AccuracyRecord(
        algorithm=str(data["algorithm"]),
        estimate=float(data["estimate"]),  # type: ignore[arg-type]
        actual=None if actual is None else int(actual),  # type: ignore[call-overload]
        degraded=bool(data.get("degraded", False)),
        failure=(
            FailureReport.from_dict(failure_data)  # type: ignore[arg-type]
            if isinstance(failure_data, dict)
            else None
        ),
    )


#: Outcome statuses that warrant another attempt.
_RETRYABLE_STATUSES = frozenset(("crash", "deadline", "exception"))


def _resolve_failure(
    payload: _Payload, status: str, data: object, policy: RetryPolicy
) -> List[AccuracyRecord]:
    """Terminal handling for a payload that exhausted its attempts.

    Deadline exhaustion degrades gracefully; everything else raises a
    :class:`WorkloadError` naming the payload.
    """
    attempts = payload.attempt + 1
    if status == "deadline":
        elapsed = 0.0
        message = ""
        if isinstance(data, dict):
            elapsed = float(data.get("elapsed_s", 0.0))
            message = str(data.get("message", ""))
        failure = FailureReport(
            kind="deadline", attempts=attempts, elapsed_s=elapsed, message=message
        )
        return _degraded_records(payload, failure)
    raise WorkloadError(
        f"{status} after {attempts} attempt(s) "
        f"(policy allows {policy.max_attempts}): {data}",
        index=payload.index,
        description=payload.description(),
    )


def _evaluate_serially(
    payloads: Sequence[_Payload], policy: RetryPolicy, base_seed: int
) -> Dict[int, List[AccuracyRecord]]:
    """In-process evaluation with the same retry/degradation semantics."""
    results: Dict[int, List[AccuracyRecord]] = {}
    for payload in payloads:
        current = payload
        while True:
            index, status, data = _evaluate_one(current)
            if status == "ok":
                results[index] = data  # type: ignore[assignment]
                break
            if (
                status in _RETRYABLE_STATUSES
                and current.attempt + 1 < policy.max_attempts
            ):
                time.sleep(
                    policy.delay_s(current.attempt, seed=base_seed + index)
                )
                current = replace(current, attempt=current.attempt + 1)
                continue
            if status == "error":
                raise WorkloadError(
                    str(data),
                    index=current.index,
                    description=current.description(),
                )
            results[index] = _resolve_failure(current, status, data, policy)
            break
    return results


def _evaluate_pooled(
    payloads: Sequence[_Payload],
    policy: RetryPolicy,
    base_seed: int,
    workers: int,
) -> Dict[int, List[AccuracyRecord]]:
    """Pool evaluation: ``imap_unordered``, per-payload retries, re-spawn.

    Worker failures come back as classified statuses and are retried on
    the next round; a pool that dies outright (a genuinely killed worker
    process) is replaced by a fresh pool, with the unfinished payloads
    charged one attempt.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    results: Dict[int, List[AccuracyRecord]] = {}
    pending = list(payloads)
    while pending:
        outcomes: List[Tuple[int, str, object]] = []
        pool_error: Optional[BaseException] = None
        pool = context.Pool(processes=min(workers, len(pending)))
        try:
            for outcome in pool.imap_unordered(_evaluate_one, pending):
                outcomes.append(outcome)
        except Exception as exc:  # the pool itself died; re-spawn below
            pool_error = exc
        finally:
            # terminate() alone (what ``with Pool(...)`` does) leaves the
            # old workers unreaped; join() collects them before any
            # re-spawn so a crash-retry loop cannot pile up zombies.
            pool.terminate()
            pool.join()
        retries: List[_Payload] = []
        by_index = {payload.index: payload for payload in pending}
        for index, status, data in outcomes:
            payload = by_index.pop(index)
            if status == "ok":
                results[index] = data  # type: ignore[assignment]
            elif (
                status in _RETRYABLE_STATUSES
                and payload.attempt + 1 < policy.max_attempts
            ):
                retries.append(replace(payload, attempt=payload.attempt + 1))
            elif status == "error":
                raise WorkloadError(
                    str(data),
                    index=payload.index,
                    description=payload.description(),
                )
            else:
                results[index] = _resolve_failure(payload, status, data, policy)
        # Payloads the dead pool never reported: charge one attempt each.
        for payload in by_index.values():
            if payload.attempt + 1 < policy.max_attempts:
                retries.append(replace(payload, attempt=payload.attempt + 1))
            else:
                raise WorkloadError(
                    f"worker pool failed after {payload.attempt + 1} "
                    f"attempt(s): {pool_error}",
                    index=payload.index,
                    description=payload.description(),
                )
        if retries:
            # One deterministic backoff per round: the slowest payload's.
            delay = max(
                policy.delay_s(p.attempt - 1, seed=base_seed + p.index)
                for p in retries
            )
            time.sleep(delay)
        pending = retries
    return results


def evaluate_workloads(  # els: hot=yes
    workloads: Sequence[GeneratedWorkload],
    algorithms: Iterable[AlgorithmSpec] = PAPER_ALGORITHMS,
    seed: int = 0,
    workers: int = 1,
    check_invariants: bool = False,
    engine: str = "columnar",
    timeout_s: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint_path: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    morsel_workers: Optional[int] = None,
) -> List[List[AccuracyRecord]]:
    """Evaluate many workloads, optionally across a process pool.

    Workload ``i`` always generates its database from seed ``seed + i``
    and the result list preserves input order, so the output is a pure
    function of ``(workloads, algorithms, seed)`` — worker count only
    changes wall-clock time, never a number.  Each worker process holds
    its own ground-truth cache; caching still helps within a worker (e.g.
    repeated queries inside one workload list) but is not shared across
    processes.

    The sweep survives faults: transient per-payload failures are retried
    under ``retry`` (with seeded-deterministic backoff), a payload whose
    ground truth exceeds ``timeout_s`` after all attempts degrades to
    estimator-only records (``degraded=True``) instead of aborting, and
    deterministic failures surface as :class:`WorkloadError` naming the
    payload index and workload.

    Args:
        workloads: The workloads to evaluate, in order.
        algorithms: Estimation setups compared for each workload.
        seed: Base data-generation seed.
        workers: Process count; ``<= 1`` evaluates serially in-process.
        check_invariants: As in :func:`evaluate_workload`.
        engine: Engine for the ground truth's reference-plan fallback,
            as in :func:`evaluate_workload`.
        timeout_s: Per-payload wall-clock budget for ground truth.
        retry: Attempt/backoff schedule; defaults to
            :data:`~repro.resilience.retry.DEFAULT_RETRY_POLICY`.
        checkpoint_path: JSONL file recording completed payloads; payloads
            whose fingerprint is already present are skipped on restart.
        fault_plan: Injected fault schedule for chaos testing; when
            ``None``, the ``REPRO_FAULT_PLAN`` environment variable is
            consulted.
        morsel_workers: Fan-out width for the ``"parallel"`` ground-truth
            engine (``None`` means one per CPU); ignored by the other
            engines and excluded from checkpoint fingerprints.
    """
    validate_engine(engine)
    specs = tuple(algorithms)
    policy = retry if retry is not None else DEFAULT_RETRY_POLICY
    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    payloads = [
        _Payload(
            index=index,
            workload=workload,
            algorithms=specs,
            seed=seed + index,
            check_invariants=check_invariants,
            engine=engine,
            timeout_s=timeout_s,
            fault_plan=plan,
            morsel_workers=morsel_workers,
        )
        for index, workload in enumerate(workloads)
    ]

    results: Dict[int, List[AccuracyRecord]] = {}
    pending: List[_Payload] = payloads
    if checkpoint_path is not None:
        # Each payload fingerprint digests the full workload spec; compute
        # them once up front rather than once per resume lookup plus once
        # per checkpoint append.
        fingerprints = {
            payload.index: payload.fingerprint() for payload in payloads
        }
        completed = load_checkpoint(checkpoint_path)
        pending = []
        for payload in payloads:
            entry = completed.get(fingerprints[payload.index])
            if entry is None:
                pending.append(payload)
            else:
                results[payload.index] = [
                    _record_from_dict(r)  # type: ignore[arg-type]
                    for r in entry["records"]  # type: ignore[index]
                ]

    if workers <= 1 or len(pending) <= 1:
        fresh = _evaluate_serially(pending, policy, seed)
    else:
        fresh = _evaluate_pooled(pending, policy, seed, workers)
    if checkpoint_path is not None:
        for payload in pending:
            records = fresh[payload.index]
            append_checkpoint(
                checkpoint_path,
                fingerprints[payload.index],
                payload.index,
                [_record_to_dict(r) for r in records],
            )
    results.update(fresh)
    return [results[index] for index in range(len(payloads))]
