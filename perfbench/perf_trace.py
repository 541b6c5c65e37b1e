"""In-memory spans for the traced run, and the traced form of every op.

A traced op issues the same public calls as the untraced op, one layer at
a time, each inside a span (name, start, end, parent, op id).  Spans stay
in memory and are written out when the run ends.  A layer's self time is
its span's duration minus the time its child spans cover.

Spans are recorded only from the benchmark, around calls into each layer.
The estimator calls made inside DP enumeration are too many and too short
for one span each: a counting wrapper sums their time, and the sum is
recorded as one ``core.estimate`` child span of ``optimizer.enumerate``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro import ELS, Executor, JoinSizeEstimator, close_query, parse_query
from repro.analysis.harness import PAPER_ALGORITHMS
from repro.analysis.truth import true_join_size
from repro.analysis.truthcache import TruthCache
from repro.optimizer.cost import CostModel
from repro.optimizer.enumerate import enumerate_dp
from repro.optimizer.optimizer import DEFAULT_METHODS
from repro.optimizer.plans import leaf_order

from perf_workloads import AnswerBench, PlanBench, SweepBench, check_count, check_plan, load

__all__ = ["TRACED_OPS", "Tracer"]


class Tracer:
    """Collects spans and counters; ``op`` tags everything with an op id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.counters: Dict[tuple, float] = defaultdict(float)
        self.op: str = "setup"
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def child(self, name: str, seconds: float) -> None:
        """A span of known length under the current span (summed calls)."""
        start = time.perf_counter() - seconds
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "start": start,
                "end": start + seconds,
            }
        )

    def count(self, name: str, amount: float) -> None:
        self.counters[(name, self.op == "setup")] += amount

    def self_seconds(self) -> Dict[tuple, float]:
        """Total self time per (span name, in set-up) pair."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        totals: Dict[tuple, float] = defaultdict(float)
        for span in self.spans:
            duration = span["end"] - span["start"]
            key = (span["name"], span["op"] == "setup")
            totals[key] += duration - children[span["id"]]
        return totals

    def durations(self, name: str) -> List[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["op"] != "setup"
        ]


class _CountingEstimator:
    """Delegates to a :class:`JoinSizeEstimator`, timing and counting the
    calls DP enumeration makes per candidate step."""

    def __init__(self, estimator: JoinSizeEstimator) -> None:
        self._estimator = estimator
        self.calls = 0
        self.seconds = 0.0

    def __getattr__(self, name: str):
        return getattr(self._estimator, name)

    def eligible(self, joined, table):
        started = time.perf_counter()
        try:
            return self._estimator.eligible(joined, table)
        finally:
            self.seconds += time.perf_counter() - started

    def join(self, state, table):
        started = time.perf_counter()
        try:
            return self._estimator.join(state, table)
        finally:
            self.calls += 1
            self.seconds += time.perf_counter() - started


def _traced_optimize(op, tracer: Tracer):
    """``Optimizer(catalog).optimize(query, ELS)`` one layer at a time."""
    with tracer.span("sql.parse"):
        query = parse_query(op.sql, schemas=op.schemas)
    with tracer.span("core.closure"):
        _, closure = close_query(query)
    tracer.count("core.implied_predicates", len(closure.implied))
    catalog = op.database.catalog
    with tracer.span("core.build"):
        estimator = JoinSizeEstimator(query, catalog, ELS)
    widths, rows = {}, {}
    for relation in estimator.query.tables:
        base = estimator.query.base_table(relation)
        widths[relation] = catalog.schema(base).row_width_bytes
        rows[relation] = catalog.stats(base).row_count
    counting = _CountingEstimator(estimator)
    with tracer.span("optimizer.enumerate"):
        plan = enumerate_dp(counting, CostModel(), widths, rows, DEFAULT_METHODS)
        tracer.child("core.estimate", counting.seconds)
    tracer.count("core.estimate_calls", counting.calls)
    with tracer.span("core.estimate"):
        estimate = estimator.estimate_order(leaf_order(plan))
    return plan, estimator, estimate


def _traced_plan_op(bench: PlanBench, op, tracer: Tracer) -> Optional[str]:
    plan, estimator, estimate = _traced_optimize(op, tracer)
    return check_plan(plan, estimator, estimate.rows)


def _traced_answer_op(bench: AnswerBench, op, tracer: Tracer) -> Optional[str]:
    plan, _, _ = _traced_optimize(op, tracer)
    with tracer.span("execution.exec"):
        executed = Executor(op.database).count(plan)
    metrics = executed.metrics
    tracer.count("execution.rows_out", metrics.total_rows_out)
    tracer.count("execution.comparisons", metrics.total_comparisons)
    tracer.count("execution.pages_read", metrics.total_pages_read)
    return check_count(op.label, executed.count, bench.truth[op.label])


def _traced_sweep_op(bench: SweepBench, op, tracer: Tracer) -> Optional[str]:
    """``evaluate_workloads([w], seed=s)`` re-issued as its public calls.

    The untraced op on the same inputs has just filled the default truth
    cache, so the traced ground truth consults an empty cache instead.
    """
    workload = op.workload
    database = load(workload.specs, op.seed, tracer)
    with tracer.span("storage.fingerprint"):
        database.fingerprint()
    cache = TruthCache()
    with tracer.span("analysis.truth"):
        actual = true_join_size(workload.query, database, cache=cache)
    tracer.count("analysis.truthcache_lookups", cache.stats.lookups)
    tracer.count("analysis.truthcache_hits", cache.stats.hits)
    with tracer.span("core.closure"):
        _, closure = close_query(workload.query)
    tracer.count("core.implied_predicates", len(closure.implied))
    order = list(workload.query.tables)
    for spec in PAPER_ALGORITHMS:
        with tracer.span("core.build"):
            estimator = JoinSizeEstimator(
                workload.query, database.catalog, spec.config, spec.apply_closure
            )
        with tracer.span("core.estimate"):
            estimator.estimate(order)
    label, untraced = bench.outcomes[-1]
    if label != op.label:
        return None  # the untraced op failed, and was counted as such
    return check_count(op.label, actual, untraced[0].actual)


TRACED_OPS = {
    PlanBench.name: _traced_plan_op,
    AnswerBench.name: _traced_answer_op,
    SweepBench.name: _traced_sweep_op,
}
