"""Tests of the benchmark's own output checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from perf_workloads import (  # noqa: E402
    AnswerBench,
    SweepBench,
    check_count,
    check_plan,
    check_records,
)
from repro import Catalog, Optimizer, parse_query  # noqa: E402
from repro.analysis.harness import AccuracyRecord  # noqa: E402


class _Counted:
    def __init__(self, count):
        self.count = count


class _OffByOne:
    """A fake workload whose third op returns a wrong count."""

    name = "fake"

    def __init__(self, seed):
        self.seed = seed
        self.calls = 0

    def steps(self, tracer=None):
        return iter(())

    def verify(self):
        return {"qerror_gmean": 1.0, "plan_regret": 1.0}

    def cycle(self):
        return [_Op("a"), _Op("b"), _Op("c")]

    def run(self, op):
        self.calls += 1
        if op.label == "b" and self.calls == 2:
            raise RuntimeError("boom")
        return _Counted(8 if op.label == "c" else 7)

    def check(self, op, outcome):
        return check_count(op.label, outcome.count, 7)

    def finish(self):
        return {"failures": []}


class _Op:
    def __init__(self, label):
        self.label = label


def test_check_count_flags_a_wrong_count():
    assert check_count("q3", 18736, 18736) is None
    assert "truth 18736" in check_count("q3", 18737, 18736)


def test_timed_loop_counts_wrong_and_failed_ops_without_aborting():
    report = {}
    attempted, failed, metrics = run.end_to_end(_OffByOne, 0, 0.0, report)
    passes = attempted // 3
    assert attempted >= 100
    assert failed == passes + 1  # every "c" op, plus the one "b" that raised
    assert metrics["ok_ratio"][0] == (attempted - failed) / attempted
    assert any("RuntimeError" in reason for reason in report["failures"])


def test_answer_check_uses_the_set_up_truth():
    bench = AnswerBench(0)
    bench.truth = {"q5": 7500}
    op = _Op("q5")
    assert bench.check(op, _Counted(7500)) is None
    assert bench.check(op, _Counted(7499)) is not None


def test_sweep_check_flags_a_wrong_or_degraded_record():
    good = [AccuracyRecord("ELS", 10.0, 12)]
    assert check_records("chain3", good, 12) is None
    assert "recount 13" in check_records("chain3", good, 13)
    degraded = [AccuracyRecord("ELS", 10.0, None, degraded=True)]
    assert "degraded" in check_records("chain3", degraded, 12)


def test_plan_check_flags_a_wrong_estimate():
    catalog = Catalog.from_stats(
        {"R1": (100, {"x": 10}), "R2": (1000, {"y": 100}), "R3": (1000, {"z": 1000})}
    )
    query = parse_query("SELECT * FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z")
    result = Optimizer(catalog).optimize(query)
    rows = result.estimate.rows
    assert check_plan(result.plan, result.estimator, rows) is None
    assert "closed form" in check_plan(result.plan, result.estimator, rows * 1.01)


@pytest.mark.parametrize("bench_cls", [AnswerBench, SweepBench])
def test_quality_repeats_bit_for_bit(bench_cls):
    first, second = bench_cls(3), bench_cls(3)
    for bench in (first, second):
        bench.setup()
    a, b = first.verify(), second.verify()
    assert (a["qerror_gmean"], a["plan_regret"]) == (b["qerror_gmean"], b["plan_regret"])
    assert a == b


def _nap():
    import time

    time.sleep(0.2)


def test_stop_children_waits_for_workers_and_the_resource_tracker():
    import multiprocessing
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    worker = multiprocessing.get_context("fork").Process(target=_nap)
    worker.start()
    run.stop_children()
    assert not worker.is_alive()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._fd is None
