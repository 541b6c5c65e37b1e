"""Accuracy harness and error-propagation tests."""

import random

import pytest

from repro.analysis import (
    DEFAULT_TRUTH_CACHE,
    PAPER_ALGORITHMS,
    evaluate_workload,
    evaluate_workloads,
    prefix_query,
    run_error_propagation,
)
from repro.sql import parse_query
from repro.workloads import build_database, chain_workload, star_workload


class TestPrefixQuery:
    def test_keeps_internal_predicates_only(self):
        query = parse_query(
            "SELECT COUNT(*) FROM A, B, C WHERE A.x = B.x AND B.x = C.x AND C.x < 5"
        )
        prefix = prefix_query(query, ["A", "B"])
        assert prefix.tables == ("A", "B")
        assert len(prefix.predicates) == 1

    def test_projection_becomes_count(self):
        query = parse_query("SELECT A.x FROM A, B WHERE A.x = B.x")
        prefix = prefix_query(query, ["A"])
        assert prefix.projection.count_star

    def test_aliases_preserved(self):
        query = parse_query("SELECT COUNT(*) FROM Orders o, Items i WHERE o.x = i.x")
        prefix = prefix_query(query, ["o"])
        assert prefix.base_table("o") == "Orders"


class TestEvaluateWorkload:
    def test_chain_records_all_algorithms(self):
        workload = chain_workload(3, random.Random(0))
        records = evaluate_workload(workload, seed=1)
        assert [r.algorithm for r in records] == [a.name for a in PAPER_ALGORITHMS]
        assert all(r.actual >= 0 for r in records)
        assert all(r.q_error >= 1.0 for r in records)

    def test_els_at_least_as_good_on_uniform_chain(self):
        """On single-class uniform chains ELS should never lose to Rule M
        (both see the same statistics; M multiplies redundant
        selectivities)."""
        failures = 0
        for trial in range(5):
            workload = chain_workload(4, random.Random(trial))
            records = {
                r.algorithm: r for r in evaluate_workload(workload, seed=trial)
            }
            if records["ELS"].q_error > records["SM + PTC"].q_error * 1.01:
                failures += 1
        assert failures == 0

    def test_star_all_algorithms_agree(self):
        """Separate classes per dimension: M, SS, LS coincide."""
        workload = star_workload(2, random.Random(3))
        records = evaluate_workload(workload, seed=3)
        with_ptc = [r for r in records if r.algorithm != "SM (no PTC)"]
        estimates = {round(r.estimate, 6) for r in with_ptc}
        assert len(estimates) == 1

    def test_database_can_be_reused(self):
        workload = chain_workload(3, random.Random(1))
        database = build_database(workload.specs, seed=5)
        a = evaluate_workload(workload, database=database)
        b = evaluate_workload(workload, database=database)
        assert [r.estimate for r in a] == [r.estimate for r in b]

    def test_explicit_order(self):
        workload = chain_workload(3, random.Random(2))
        records = evaluate_workload(workload, seed=2, order=["T3", "T2", "T1"])
        assert len(records) == len(PAPER_ALGORITHMS)


def _sweep_workloads(count=2):
    return [
        chain_workload(3, random.Random(400 + i), max_rows=600)
        for i in range(count)
    ]


@pytest.fixture
def cold_truth_cache():
    """A warm shared cache would answer before any deadline."""
    DEFAULT_TRUTH_CACHE.clear()
    yield
    DEFAULT_TRUTH_CACHE.clear()


@pytest.mark.usefixtures("cold_truth_cache")
class TestSweepDeadline:
    def test_expired_deadline_degrades_every_record(self):
        workloads = _sweep_workloads(2)
        results = evaluate_workloads(workloads, seed=7, timeout_s=1e-9)
        assert len(results) == len(workloads)
        for records in results:
            assert len(records) == len(PAPER_ALGORITHMS)
            assert all(record.degraded for record in records)
            assert all("deadline" in record.failure for record in records)

    def test_generous_timeout_keeps_the_sweep_clean(self):
        results = evaluate_workloads(_sweep_workloads(2), seed=7, timeout_s=120.0)
        assert not any(record.degraded for records in results for record in records)


class TestErrorPropagation:
    def test_points_cover_grid(self):
        points = run_error_propagation(max_tables=4, trials=3, seed=0)
        algorithms = {p.algorithm for p in points}
        assert algorithms == {a.name for a in PAPER_ALGORITHMS}
        joins = {p.num_joins for p in points}
        assert joins == {1, 2, 3}

    def test_rule_m_error_grows_with_joins(self):
        """The multiplicative rule's error must increase with chain length
        (the [4] error-propagation phenomenon)."""
        points = run_error_propagation(max_tables=5, trials=6, seed=1)
        m_points = sorted(
            (p for p in points if p.algorithm == "SM + PTC"),
            key=lambda p: p.num_joins,
        )
        first = m_points[0].q_errors.geometric_mean
        last = m_points[-1].q_errors.geometric_mean
        assert last > first

    def test_els_error_stays_small_on_uniform_chains(self):
        points = run_error_propagation(
            max_tables=5, trials=6, seed=2, local_predicate_probability=0.0
        )
        els_points = [p for p in points if p.algorithm == "ELS"]
        for point in els_points:
            assert point.q_errors.geometric_mean < 3.0

    def test_summary_fields_populated(self):
        points = run_error_propagation(max_tables=3, trials=2, seed=3)
        for point in points:
            assert point.q_errors.count == 2
            assert isinstance(point.mean_log10_ratio, float)
