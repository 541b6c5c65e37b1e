"""The estimator's per-table predicate index and the enumerators' work count.

``JoinSizeEstimator.eligible`` and ``eligible_between`` answer from a
per-table index of prepared join predicates.  Hypothesis checks them
against a brute-force filter over ``prepared_predicates`` on generated
chain, star, cycle, clique and snowflake queries, with closure on and off:
the same predicates, in the same order.  A counting delegate then pins the
DP's work: none for an expansion the cost-floor cut skips; under SM at
most one ``join`` per expansion and no separate eligibility pass; under
ELS, whose estimate is order-independent, one ``join`` per subset and an
eligibility lookup for each other expansion not cut.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog
from repro.core import ELS, SM, JoinSizeEstimator
from repro.optimizer import CostModel, JoinMethod, enumerate_dp
from repro.workloads import clique_workload

from .test_plan_golden import SHAPES, SIZES, plan_workload


def _catalog(specs):
    return Catalog.from_stats(
        {
            spec.name: (
                spec.rows,
                {name: column.distinct for name, column in spec.columns.items()},
            )
            for spec in specs
        }
    )


def _brute_eligible(estimator, joined, table):
    return tuple(
        p
        for p in estimator.prepared_predicates
        if table in p.tables and (p.tables - {table}) <= joined
    )


def _brute_between(estimator, left, right):
    return tuple(
        p
        for p in estimator.prepared_predicates
        if (p.tables & left) and (p.tables & right) and p.tables <= (left | right)
    )


@st.composite
def estimators(draw):
    shape = draw(st.sampled_from(SHAPES))
    size = draw(st.sampled_from(SIZES))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    closure = draw(st.booleans())
    workload = plan_workload(shape, size, random.Random(seed))
    return JoinSizeEstimator(
        workload.query, _catalog(workload.specs), ELS, apply_closure=closure
    )


def _subset(draw, tables):
    return frozenset(t for t in tables if draw(st.booleans()))


class TestEligibleMatchesBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), estimator=estimators())
    def test_eligible(self, data, estimator):
        tables = sorted(estimator.query.tables)
        for _ in range(8):
            joined = _subset(data.draw, tables)
            table = data.draw(st.sampled_from(tables))
            assert estimator.eligible(joined, table) == _brute_eligible(
                estimator, joined, table
            )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), estimator=estimators())
    def test_eligible_between_disjoint(self, data, estimator):
        tables = sorted(estimator.query.tables)
        for _ in range(8):
            left = _subset(data.draw, tables)
            right = _subset(data.draw, sorted(set(tables) - left))
            assert estimator.eligible_between(left, right) == _brute_between(
                estimator, left, right
            )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), estimator=estimators())
    def test_eligible_between_overlapping(self, data, estimator):
        tables = sorted(estimator.query.tables)
        for _ in range(8):
            left = _subset(data.draw, tables)
            right = _subset(data.draw, tables)
            assert estimator.eligible_between(left, right) == _brute_between(
                estimator, left, right
            )

    def test_unknown_table_has_no_eligible_predicates(self):
        workload = plan_workload("chain", 5, random.Random(0))
        estimator = JoinSizeEstimator(workload.query, _catalog(workload.specs), ELS)
        assert estimator.eligible(frozenset({"T1"}), "X") == ()
        assert estimator.eligible_between(frozenset({"X"}), frozenset({"T1"})) == ()


class _CountingEstimator:
    """Delegates to a :class:`JoinSizeEstimator`, counting calls by name."""

    def __init__(self, estimator):
        self._estimator = estimator
        self.calls = {"start": 0, "join": 0, "eligible": 0}

    def __getattr__(self, name):
        return getattr(self._estimator, name)

    def start(self, table):
        self.calls["start"] += 1
        return self._estimator.start(table)

    def join(self, state, table):
        self.calls["join"] += 1
        return self._estimator.join(state, table)

    def eligible(self, joined, table):
        self.calls["eligible"] += 1
        return self._estimator.eligible(joined, table)


def _clique_dp_calls(config, size):
    """Estimator calls made by ``enumerate_dp`` on a ``size``-clique."""
    workload = clique_workload(size, random.Random(3), 20, 200)
    counting = _CountingEstimator(
        JoinSizeEstimator(workload.query, _catalog(workload.specs), config)
    )
    widths = {spec.name: 8 for spec in workload.specs}
    rows = {spec.name: spec.rows for spec in workload.specs}
    enumerate_dp(
        counting,
        CostModel(),
        widths,
        rows,
        (JoinMethod.NESTED_LOOPS, JoinMethod.SORT_MERGE),
    )
    return counting.calls


class TestDynamicProgrammingWork:
    # A clique's every subset is connected, so each subset of k >= 2
    # relations has one expansion per member: sum_k C(n, k) * k.  An
    # expansion whose cost floor exceeds the best connected total is never
    # estimated.
    SIZE = 6
    EXPANSIONS = SIZE * (2 ** (SIZE - 1) - 1)
    SUBSETS = 2**SIZE - 1 - SIZE

    def test_one_join_per_expansion_and_no_eligible_pass(self):
        # ELS is order-independent: each subset is estimated once, and
        # every other expansion not cut looks up only its eligible
        # predicates.
        calls = _clique_dp_calls(ELS, self.SIZE)
        assert calls["start"] == self.SIZE
        assert calls["join"] == self.SUBSETS
        assert calls["join"] + calls["eligible"] <= self.EXPANSIONS
        assert calls["eligible"] == 14

    def test_order_dependent_estimator_joins_per_expansion(self):
        # SM keeps one step per expansion not cut: each settled subset
        # estimates at least its winner, and no eligibility pass runs.
        calls = _clique_dp_calls(SM, self.SIZE)
        assert calls["start"] == self.SIZE
        assert calls["eligible"] == 0
        assert self.SUBSETS <= calls["join"] < self.EXPANSIONS
        assert calls["join"] == 142
