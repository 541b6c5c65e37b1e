"""Deadline primitive and its cooperative checks inside the executors."""

import random

import pytest

from repro.analysis import TruthCache, execute_query, true_join_size
from repro.errors import DeadlineExceededError, ExecutionError
from repro.execution.executor import Executor
from repro.resilience import Deadline
from repro.workloads import build_database, chain_workload


class FakeClock:
    """A manually advanced monotonic clock for deterministic expiry."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def chain():
    workload = chain_workload(3, random.Random(0))
    database = build_database(workload.specs, seed=0)
    return workload.query, database


class TestDeadlineUnit:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_rejects_nonfinite_budget(self):
        with pytest.raises(ValueError):
            Deadline(float("inf"))
        with pytest.raises(ValueError):
            Deadline(float("nan"))

    def test_rejects_nonpositive_tick_interval(self):
        with pytest.raises(ValueError):
            Deadline(1.0, tick_interval=0)

    def test_remaining_and_expiry_track_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.budget_s == 2.0
        assert deadline.remaining_s() == 2.0
        assert not deadline.expired()
        clock.advance(1.5)
        assert deadline.remaining_s() == 0.5
        clock.advance(1.0)
        assert deadline.expired()

    def test_check_raises_structured_error(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        deadline.check("scan(T1)")  # within budget: no raise
        clock.advance(3.0)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("scan(T1)")
        error = excinfo.value
        assert error.budget_s == 1.0
        assert error.elapsed_s == 3.0
        assert error.label == "scan(T1)"
        assert "scan(T1)" in str(error)

    def test_tick_only_reads_clock_at_interval(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock, tick_interval=10)
        clock.advance(5.0)  # already expired, but ticks below the interval
        for _ in range(9):
            deadline.tick(1)
        with pytest.raises(DeadlineExceededError):
            deadline.tick(1)  # the tenth tick reads the clock

    def test_tick_accepts_bulk_counts(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock, tick_interval=100)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError):
            deadline.tick(1000, "hash-join")


class TestExecutorDeadline:
    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_expired_deadline_aborts_execution(self, chain, engine):
        query, database = chain
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(5.0)
        with pytest.raises(DeadlineExceededError):
            true_join_size(
                query, database, engine=engine, cache=None, deadline=deadline
            )

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_generous_deadline_does_not_change_the_count(self, chain, engine):
        query, database = chain
        bounded = true_join_size(
            query, database, engine=engine, cache=None, timeout_s=60.0
        )
        unbounded = true_join_size(query, database, engine=engine, cache=None)
        assert bounded == unbounded

    def test_tiny_timeout_aborts_with_real_clock(self, chain):
        query, database = chain
        with pytest.raises(DeadlineExceededError):
            true_join_size(query, database, cache=None, timeout_s=1e-9)

    def test_execute_query_honors_timeout(self, chain):
        query, database = chain
        with pytest.raises(DeadlineExceededError):
            execute_query(query, database, timeout_s=1e-9)

    def test_executor_accepts_explicit_deadline(self, chain):
        query, database = chain
        from repro.analysis import build_reference_plan

        plan = build_reference_plan(query, database)
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        executor = Executor(database, engine="columnar", deadline=deadline)
        with pytest.raises(DeadlineExceededError):
            executor.count(plan)

    def test_cache_hit_bypasses_the_deadline(self, chain):
        query, database = chain
        cache = TruthCache()
        expected = true_join_size(query, database, cache=cache)
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(10.0)  # expired before the call
        answered = true_join_size(
            query, database, cache=cache, deadline=deadline
        )
        assert answered == expected
        assert cache.stats.hits == 1

    def test_shared_deadline_spans_multiple_executions(self, chain):
        query, database = chain
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        first = true_join_size(query, database, cache=None, deadline=deadline)
        assert first >= 0
        clock.advance(5.0)  # budget spent between calls
        with pytest.raises(DeadlineExceededError):
            true_join_size(query, database, cache=None, deadline=deadline)


class TestExactPathContract:
    """The frequency-propagation path keeps the executors' contract."""

    def test_chain_takes_the_exact_path(self, chain):
        from repro.analysis.truth import _exact_join_size

        query, database = chain
        assert _exact_join_size(query, database, None) is not None

    def test_expired_deadline_raises(self, chain):
        query, database = chain
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(5.0)
        with pytest.raises(DeadlineExceededError) as excinfo:
            true_join_size(
                query, database, engine="row", cache=None, deadline=deadline
            )
        assert excinfo.value.label == "exact-count"

    def test_deadline_spent_mid_count_raises(self, chain):
        """A clock that expires after a few reads stops between steps."""
        query, database = chain
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) <= 2 else 10.0

        deadline = Deadline(1.0, clock=clock)
        with pytest.raises(DeadlineExceededError) as excinfo:
            true_join_size(
                query, database, engine="row", cache=None, deadline=deadline
            )
        assert excinfo.value.label.startswith("count(")

    def test_bad_order_raises(self, chain):
        query, database = chain
        with pytest.raises(ExecutionError):
            true_join_size(
                query, database, order=["nope"], engine="row", cache=None
            )

    def test_cache_hit_bypasses_the_deadline(self, chain):
        query, database = chain
        cache = TruthCache()
        expected = true_join_size(query, database, engine="row", cache=cache)
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(10.0)
        answered = true_join_size(
            query, database, engine="row", cache=cache, deadline=deadline
        )
        assert answered == expected
        assert cache.stats.hits == 1
