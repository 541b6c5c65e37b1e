"""End-to-end property: under the paper's assumptions, ELS is *exact*.

The generators can realize Section 2's assumptions perfectly — uniform
(every value appears rows/d times, rows divisible by d) and contained
(nested domains starting at 1).  Under those conditions the true join size
IS Equation 3, so Algorithm ELS's estimate must match the executed count
exactly, for every join order.  Hypothesis drives the statistics; the data
is generated, loaded, counted, and compared.  The truth comes from
``true_join_size`` (the exact frequency-propagation counter) and is itself
checked against a row-engine execution of the reference plan, so the
exactness property never rests on the counter alone.

This is the strongest statement the reproduction can make: not "close on
average" but "equal, whenever the assumptions hold".
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_reference_plan, true_join_size
from repro.core import ELS, JoinSizeEstimator
from repro.execution import Executor
from repro.sql import Projection, Query, join_predicate
from repro.workloads import TableSpec, build_database


@st.composite
def uniform_chain_configs(draw):
    """2-4 tables; rows = distinct * multiplier keeps uniformity exact."""
    n = draw(st.integers(min_value=2, max_value=4))
    tables = []
    for _ in range(n):
        distinct = draw(st.integers(min_value=1, max_value=40))
        multiplier = draw(st.integers(min_value=1, max_value=15))
        tables.append((distinct * multiplier, distinct))
    return tables


def executed_truth(query, database):
    """The exact count, checked against the row engine's execution."""
    truth = true_join_size(query, database, cache=None)
    plan = build_reference_plan(query, database)
    assert Executor(database, engine="row").count(plan).count == truth
    return truth


def build(config, seed):
    specs = [
        TableSpec.uniform(f"T{i}", rows, {"c": distinct})
        for i, (rows, distinct) in enumerate(config, start=1)
    ]
    names = [spec.name for spec in specs]
    predicates = [
        join_predicate(names[i], "c", names[i + 1], "c")
        for i in range(len(names) - 1)
    ]
    query = Query.build(names, predicates, Projection(count_star=True))
    database = build_database(specs, seed=seed)
    return database, query, names


class TestExactnessUnderAssumptions:
    @given(config=uniform_chain_configs(), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_els_equals_executed_truth(self, config, seed):
        database, query, names = build(config, seed)
        truth = executed_truth(query, database)
        estimator = JoinSizeEstimator(query, database.catalog, ELS)
        estimate = estimator.estimate(names)
        assert estimate == pytest.approx(truth, abs=1e-6)

    @given(config=uniform_chain_configs(), seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_exact_for_every_join_order(self, config, seed):
        database, query, names = build(config, seed)
        truth = executed_truth(query, database)
        estimator = JoinSizeEstimator(query, database.catalog, ELS)
        for order in itertools.permutations(names):
            assert estimator.estimate(list(order)) == pytest.approx(truth, abs=1e-6)

    @given(config=uniform_chain_configs(), seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_every_prefix_is_exact(self, config, seed):
        """Not only the final size: every intermediate matches its own
        executed truth — the incremental claim itself."""
        from repro.analysis import prefix_query

        database, query, names = build(config, seed)
        estimator = JoinSizeEstimator(query, database.catalog, ELS)
        walk = estimator.estimate_order(names)
        for k in range(2, len(names) + 1):
            sub_truth = executed_truth(prefix_query(query, names[:k]), database)
            assert walk.steps[k - 1].rows == pytest.approx(sub_truth, abs=1e-6)


class TestExactnessWithEqualityLocals:
    @given(
        config=uniform_chain_configs(),
        seed=st.integers(0, 10**6),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_equality_local_predicate_stays_exact(self, config, seed, data):
        """An equality literal on a join column keeps everything exact:
        the selected value exists in every (nested) domain, each table
        contributes rows/d matching tuples, and closure propagates the
        literal class-wide."""
        from repro.sql import Op, local_predicate

        database, query, names = build(config, seed)
        smallest_d = min(d for _, d in config)
        value = data.draw(st.integers(min_value=1, max_value=smallest_d))
        predicates = list(query.predicates) + [
            local_predicate(names[0], "c", Op.EQ, value)
        ]
        filtered = Query.build(names, predicates, Projection(count_star=True))
        truth = executed_truth(filtered, database)
        estimate = JoinSizeEstimator(filtered, database.catalog, ELS).estimate(names)
        assert estimate == pytest.approx(truth, abs=1e-6)
