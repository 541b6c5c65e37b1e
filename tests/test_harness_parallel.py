"""Sweep harness: seed assignment, input order and engine independence."""

import random

from repro.analysis import evaluate_workload, evaluate_workloads
from repro.workloads import chain_workload, star_workload


def _workloads():
    return [
        chain_workload(3, random.Random(0)),
        star_workload(2, random.Random(1)),
        chain_workload(4, random.Random(2), local_predicate_probability=0.5),
    ]


def _flatten(results):
    return [
        (r.algorithm, r.estimate, r.actual, r.q_error)
        for records in results
        for r in records
    ]


class TestEvaluateWorkloads:
    def test_workload_i_gets_seed_plus_i(self):
        """The sweep must reproduce per-workload calls, in input order."""
        workloads = _workloads()
        batched = evaluate_workloads(workloads, seed=20)
        individual = [
            evaluate_workload(workload, seed=20 + index)
            for index, workload in enumerate(workloads)
        ]
        assert _flatten(batched) == _flatten(individual)

    def test_empty_workload_list(self):
        assert evaluate_workloads([], seed=0) == []

    def test_engine_choice_does_not_change_results(self):
        workloads = _workloads()[:1]
        row = evaluate_workloads(workloads, seed=3, engine="row")
        columnar = evaluate_workloads(workloads, seed=3, engine="columnar")
        assert _flatten(row) == _flatten(columnar)
