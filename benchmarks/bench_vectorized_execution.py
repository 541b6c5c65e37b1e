"""Benchmark — columnar vectorized engine vs the row engine on ground truth.

The columnar path exists for one reason: executed ground truths dominate
the cost of every accuracy study, and the instance-optimal / entropy-bound
estimator comparisons on the roadmap need orders of magnitude more of
them.  This bench runs the Section 8 prefix joins on both engines over
the full-scale 157k-row database and asserts

(a) **correctness parity** — identical counts and identical per-operator
    statistics (rows in/out, comparisons, simulated pages), so the
    speedup is measured on provably equivalent work;
(b) **a real speedup** — columnar ground truth is faster than the row
    engine on the biggest prefix (perfbench's traced runs measure each
    engine's time; here we assert the direction conservatively to keep
    CI timing-noise-proof);
(c) **cache effectiveness** — a warm ground-truth cache answers in
    microseconds without touching either engine.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import AsciiTable, TruthCache, build_reference_plan, prefix_query, true_join_size
from repro.execution import Executor
from repro.workloads import smbg_query


def _operator_stats(metrics):
    return [
        (s.label, s.rows_in, s.rows_out, s.comparisons, s.pages_read)
        for s in metrics.operators
    ]


def _time_count(database, plan, engine):
    started = time.perf_counter()
    result = Executor(database, engine=engine).count(plan)
    return result, time.perf_counter() - started


@pytest.mark.parametrize("num_tables", [2, 3, 4])
def test_engines_agree_on_counts_and_stats(smbg_database_full, num_tables):
    query = smbg_query()
    sub = prefix_query(query, list(query.tables)[:num_tables])
    plan = build_reference_plan(sub, smbg_database_full)
    row = Executor(smbg_database_full, engine="row").count(plan)
    columnar = Executor(smbg_database_full, engine="columnar").count(plan)
    assert row.count == columnar.count > 0
    assert _operator_stats(row.metrics) == _operator_stats(columnar.metrics)


def test_columnar_beats_row_engine_on_full_join(smbg_database_full):
    query = smbg_query()
    plan = build_reference_plan(query, smbg_database_full)
    # Warm one-time caches (storage transpose) outside the timed region.
    Executor(smbg_database_full, engine="columnar").count(plan)
    table = AsciiTable(["Engine", "Count", "Median (s)"], title="S><M><B><G truth")
    timings = {}
    for engine in ("row", "columnar"):
        samples = []
        count = None
        for _ in range(3):
            result, seconds = _time_count(smbg_database_full, plan, engine)
            samples.append(seconds)
            count = result.count
        timings[engine] = sorted(samples)[1]
        table.add_row(engine, count, f"{timings[engine]:.6f}")
    print()
    print(table.render())
    assert timings["columnar"] < timings["row"]


def test_truth_cache_skips_reexecution(smbg_database_full):
    query = smbg_query()
    cache = TruthCache()
    first = true_join_size(query, smbg_database_full, cache=cache)
    started = time.perf_counter()
    second = true_join_size(query, smbg_database_full, cache=cache)
    cached_seconds = time.perf_counter() - started
    assert first == second > 0
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    # A cache hit is two digest lookups and a dict get — far under a
    # millisecond even on slow CI machines.
    assert cached_seconds < 0.1
