"""Graceful degradation and error wrapping in the sweep harness."""

import math
import random

import pytest

from repro.analysis.harness import (
    PAPER_ALGORITHMS,
    evaluate_workload,
    evaluate_workloads,
)
from repro.analysis.truthcache import DEFAULT_TRUTH_CACHE
from repro.errors import DeadlineExceededError, EstimationError, WorkloadError
from repro.workloads import chain_workload


def small_workloads(count=2):
    return [
        chain_workload(3, random.Random(300 + i), max_rows=600)
        for i in range(count)
    ]


@pytest.fixture(autouse=True)
def cold_truth_cache():
    """Deadline tests must not be answered by a warm shared cache."""
    DEFAULT_TRUTH_CACHE.clear()
    yield
    DEFAULT_TRUTH_CACHE.clear()


class TestDeadlineDegradation:
    def test_impossible_deadline_degrades_instead_of_aborting(self):
        workloads = small_workloads(2)
        results = evaluate_workloads(workloads, seed=3, timeout_s=1e-9)
        assert len(results) == 2
        for records in results:
            assert len(records) == len(PAPER_ALGORITHMS)
            for record in records:
                assert record.degraded
                assert record.actual is None
                assert math.isnan(record.q_error)
                assert math.isnan(record.ratio)
                assert record.failure is not None
                assert "deadline" in record.failure

    def test_degraded_records_still_carry_the_estimates(self):
        workloads = small_workloads(1)
        degraded = evaluate_workloads(workloads, seed=3, timeout_s=1e-9)
        DEFAULT_TRUTH_CACHE.clear()
        healthy = evaluate_workloads(workloads, seed=3)
        for bad, good in zip(degraded[0], healthy[0]):
            assert bad.algorithm == good.algorithm
            assert bad.estimate == good.estimate  # same data, same estimator
            assert not good.degraded
            assert good.failure is None

    def test_generous_deadline_changes_nothing(self):
        workloads = small_workloads(2)
        bounded = evaluate_workloads(workloads, seed=3, timeout_s=120.0)
        DEFAULT_TRUTH_CACHE.clear()
        unbounded = evaluate_workloads(workloads, seed=3)
        assert repr(bounded) == repr(unbounded)

    def test_evaluate_workload_raises_rather_than_degrades(self):
        workload = small_workloads(1)[0]
        with pytest.raises(DeadlineExceededError):
            evaluate_workload(workload, seed=3, timeout_s=1e-9)


class TestErrorWrapping:
    def test_deterministic_error_is_wrapped_without_retries(self, monkeypatch):
        import repro.analysis.harness as harness

        calls = []

        def broken_truth(*args, **kwargs):
            calls.append(1)
            raise EstimationError("catalog is inconsistent")

        monkeypatch.setattr(harness, "true_join_size", broken_truth)
        workloads = small_workloads(2)
        with pytest.raises(WorkloadError) as excinfo:
            evaluate_workloads(workloads, seed=3)
        error = excinfo.value
        assert error.index == 0
        assert error.description == "T1 >< T2 >< T3"
        assert "workload[0]" in str(error)
        assert "catalog is inconsistent" in str(error)
        assert isinstance(error.__cause__, EstimationError)
        assert len(calls) == 1  # the sweep stops at the first failure

    def test_non_library_exception_propagates_unwrapped(self, monkeypatch):
        import repro.analysis.harness as harness

        def broken_truth(*args, **kwargs):
            raise OSError("disk went away")

        monkeypatch.setattr(harness, "true_join_size", broken_truth)
        with pytest.raises(OSError, match="disk went away"):
            evaluate_workloads(small_workloads(1), seed=3)
