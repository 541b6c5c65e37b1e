"""Regression tests for the ELS6xx dogfood fixes.

The ``--perf`` sweep over ``src/`` flagged real hot-path hazards that
were then fixed: per-inner-row outer-key re-extraction in the nested-loop
join, and per-call lambda/key-function allocation in the greedy
ground-truth order and Rules SS/LS combination (ELS605).  These
tests pin the *behavior* of the rewritten code so the optimizations
cannot drift semantically, and count the expensive calls so the
quadratic shapes cannot quietly come back.
"""

import random

from repro.analysis.truth import _greedy_order, build_reference_plan
from repro.core.estimator import _by_selectivity
from repro.execution import (
    ExecutionMetrics,
    HashJoinOp,
    NestedLoopJoinOp,
    TableScanOp,
)
from repro.sql import Op, join_predicate, local_predicate
from repro.workloads import chain_workload


def scan(relation, columns, rows, metrics):
    return TableScanOp(relation, columns, rows, metrics, 0.0)


class TestNestedLoopKeyHoist:
    """The hoisted per-outer-row key must preserve exact join semantics."""

    LEFT = [(1, 10), (2, 20), (2, 21), (3, 30)]
    RIGHT = [(2, 5), (2, 6), (3, 7), (4, 8)]

    def _join(self, join_class, predicates):
        metrics = ExecutionMetrics()
        left = scan("L", ["k", "v"], self.LEFT, metrics)
        right = scan("R", ["k", "w"], self.RIGHT, metrics)
        return sorted(join_class(left, right, predicates, metrics).rows())

    def test_equi_join_matches_hash_join(self):
        predicates = [join_predicate("L", "k", "R", "k")]
        assert self._join(NestedLoopJoinOp, predicates) == self._join(
            HashJoinOp, predicates
        )

    def test_multi_key_join_matches_brute_force(self):
        predicates = [
            join_predicate("L", "k", "R", "k"),
            join_predicate("L", "v", "R", "w"),
        ]
        rows = [(2, 5, 2, 5)]
        metrics = ExecutionMetrics()
        left = scan("L", ["k", "v"], [(2, 5), (2, 6)], metrics)
        right = scan("R", ["k", "w"], [(2, 5), (3, 5)], metrics)
        op = NestedLoopJoinOp(left, right, predicates, metrics)
        assert sorted(op.rows()) == rows

    def test_keyless_residual_join(self):
        """No equi-key: every pair must reach the residual predicate."""
        predicates = [
            join_predicate("L", "k", "R", "k", op=Op.LT),
        ]
        result = self._join(NestedLoopJoinOp, predicates)
        expected = sorted(
            l + r for l in self.LEFT for r in self.RIGHT if l[0] < r[0]
        )
        assert result == expected

    def test_pure_cross_product(self):
        result = self._join(NestedLoopJoinOp, [])
        assert len(result) == len(self.LEFT) * len(self.RIGHT)

    def test_residual_on_top_of_equi_key(self):
        predicates = [
            join_predicate("L", "k", "R", "k"),
            join_predicate("L", "v", "R", "w", op=Op.GT),
        ]
        result = self._join(NestedLoopJoinOp, predicates)
        expected = sorted(
            l + r
            for l in self.LEFT
            for r in self.RIGHT
            if l[0] == r[0] and l[1] > r[1]
        )
        assert result == expected


class TestGreedyOrderRank:
    def test_smallest_table_first(self):
        workload = chain_workload(3, random.Random(41), max_rows=500)
        from repro.analysis.harness import build_database

        database = build_database(workload.specs, seed=41)
        order = _greedy_order(workload.query, database)
        sizes = {
            relation: database.table(
                workload.query.base_table(relation)
            ).row_count
            for relation in workload.query.tables
        }
        first = order[0]
        assert sizes[first] == min(sizes.values())
        assert sorted(order) == sorted(workload.query.tables)
        # The order must be a deterministic function of the inputs.
        assert order == _greedy_order(workload.query, database)

    def test_reference_plan_still_builds(self):
        workload = chain_workload(3, random.Random(42), max_rows=500)
        from repro.analysis.harness import build_database

        database = build_database(workload.specs, seed=42)
        plan = build_reference_plan(workload.query, database)
        assert plan is not None


class TestSelectivityKey:
    def test_module_level_key_orders_by_selectivity(self):
        class _Prepared:
            def __init__(self, selectivity):
                self.selectivity = selectivity

        members = [_Prepared(0.5), _Prepared(0.1), _Prepared(0.9)]
        assert min(members, key=_by_selectivity).selectivity == 0.1
        assert max(members, key=_by_selectivity).selectivity == 0.9
