"""Section 7 as an executable property: one estimate per table subset.

Under predicate transitive closure Rule LS gives a table set the same
estimate whatever the join order.  ``JoinSizeEstimator.order_independent``
reads true exactly for those configurations, and the DP then estimates each
subset once.  Hypothesis checks on chain, star, snowflake, cycle and clique
graphs, with local predicates, Section 6 columns (two columns of one table
in one class) and a non-equality join predicate, that:

* every left-deep order and every bushy split of every subset gives the
  same rows, to 1e-12 relative, under each order-independent
  configuration;
* the DP that estimates each subset once chooses the same plan, by
  ``explain()`` and cost ``repr``, as the DP with that reuse turned off.

Pinned counterexamples show that Rule SS, ELS and Rule REP without
closure, and the frequency extension are really order-dependent.  Rules M
and REP under closure read false conservatively: their final estimate for
a set agrees across orders too, which a last test pins.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, HistogramKind, collect_table_stats
from repro.catalog.schema import TableSchema
from repro.core import ELS, SM, SRS, SSS, JoinSizeEstimator, SelectivityRule
from repro.optimizer import CostModel, enumerate_dp, enumerate_dp_bushy
from repro.optimizer.plans import explain
from repro.sql import Projection, Query, join_predicate, local_predicate
from repro.sql.predicates import Op
from repro.storage.table import Table
from repro.workloads import example_1b_catalog, example_1b_query

from .test_dp_pricing import METHOD_SETS, _workload

ORDER_INDEPENDENT = {
    "ELS": ELS,
    "ELS-no-fold": ELS.but(fold_local_into_columns=False),
    "ELS-no-urn": ELS.but(use_urn_model=False),
    "ELS-no-jequiv": ELS.but(handle_single_table_jequiv=False),
    "standard-LS": SM.but(rule=SelectivityRule.LARGEST),
}


@st.composite
def queries(draw, max_size=5):
    """A generated join graph with extra predicates, and its catalog."""
    shape = draw(st.sampled_from(("chain", "star", "snowflake", "cycle", "clique")))
    size = draw(st.integers(min_value=3 if shape == "cycle" else 2, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    workload = _workload(shape, size, rng)
    stats = {
        spec.name: (spec.rows, {n: c.distinct for n, c in spec.columns.items()})
        for spec in workload.specs
    }
    names = [spec.name for spec in workload.specs]
    predicates = list(workload.query.predicates)
    first_column = {name: sorted(stats[name][1])[0] for name in names}
    # Section 6: a second column of one table joins the same class as one
    # of its own columns, so closure makes the two j-equivalent.
    if draw(st.booleans()):
        owner, other = rng.sample(names, 2)
        rows, columns = stats[owner]
        columns["w"] = rng.randint(1, rows)
        for column in ("w", first_column[owner]):
            predicates.append(join_predicate(other, first_column[other], owner, column))
    if draw(st.booleans()):
        left, right = rng.sample(names, 2)
        predicates.append(
            join_predicate(left, first_column[left], right, first_column[right], Op.LT)
        )
    for name in names:
        if rng.random() < 0.3:
            distinct = stats[name][1][first_column[name]]
            predicates.append(
                local_predicate(name, first_column[name], Op.LT, rng.randint(1, distinct))
            )
    query = Query.build(names, predicates, Projection(count_star=True))
    return query, Catalog.from_stats(stats)


def _rows_close(actual, expected):
    return actual == pytest.approx(expected, rel=1e-12, abs=0.0)


def _reference_states(estimator):
    """Every subset's state along its sorted left-deep order."""
    tables = sorted(estimator.query.tables)
    states = {}
    for size in range(1, len(tables) + 1):
        for subset in itertools.combinations(tables, size):
            if size == 1:
                state = estimator.start(subset[0])
            else:
                state, _ = estimator.join(states[frozenset(subset[:-1])], subset[-1])
            states[frozenset(subset)] = state
    return states


class _PerExpansion:
    """Delegates to an estimator but reports it order-dependent, so the DP
    runs one estimator step per expansion it does not cut."""

    order_independent = False

    def __init__(self, estimator):
        self._estimator = estimator

    def __getattr__(self, name):
        return getattr(self._estimator, name)


class TestOrderIndependentConfigurations:
    @settings(max_examples=40, deadline=None)
    @given(case=queries(), name=st.sampled_from(sorted(ORDER_INDEPENDENT)))
    def test_every_order_and_split_gives_the_same_rows(self, case, name):
        query, catalog = case
        estimator = JoinSizeEstimator(query, catalog, ORDER_INDEPENDENT[name])
        assert estimator.order_independent
        reference = _reference_states(estimator)
        for subset, expected in reference.items():
            if len(subset) < 2:
                continue
            for order in itertools.permutations(sorted(subset)):
                assert _rows_close(estimator.estimate(order), expected.rows)
            members = sorted(subset)
            for left_size in range(1, len(members)):
                for left in itertools.combinations(members, left_size):
                    left_set = frozenset(left)
                    state, _ = estimator.join_states(
                        reference[left_set], reference[subset - left_set]
                    )
                    assert state.tables == subset
                    assert _rows_close(state.rows, expected.rows)

    @settings(max_examples=40, deadline=None)
    @given(
        case=queries(max_size=6),
        name=st.sampled_from(sorted(ORDER_INDEPENDENT)),
        methods=st.sampled_from(sorted(METHOD_SETS)),
        enumerator=st.sampled_from([enumerate_dp, enumerate_dp_bushy]),
    )
    def test_one_estimate_per_subset_keeps_the_dp_plan(
        self, case, name, methods, enumerator
    ):
        query, catalog = case
        estimator = JoinSizeEstimator(query, catalog, ORDER_INDEPENDENT[name])
        widths = {table: 8 for table in estimator.query.tables}
        rows = {table: catalog.stats(table).row_count for table in estimator.query.tables}
        model = CostModel()
        plan = enumerator(estimator, model, widths, rows, METHOD_SETS[methods])
        expected = enumerator(
            _PerExpansion(estimator), model, widths, rows, METHOD_SETS[methods]
        )
        assert explain(plan) == explain(expected)
        assert repr(plan.estimated_cost) == repr(expected.estimated_cost)
        assert _rows_close(plan.estimated_rows, expected.estimated_rows)


def _skewed_catalog():
    """One class over three tables whose hot values differ (MCVs kept)."""
    values = {
        "A": [1] * 90 + [2] * 5 + list(range(3, 8)),
        "B": [1] * 5 + [2] * 90 + list(range(3, 8)),
        "C": list(range(1, 21)),
    }
    catalog = Catalog()
    for name, column in values.items():
        table = Table(TableSchema.of(name, "c"))
        table.extend([(v,) for v in column])
        catalog.register(
            table.schema, collect_table_stats(table, HistogramKind.NONE, mcv_k=2)
        )
    query = Query.build(
        ["A", "B", "C"],
        [join_predicate("A", "c", "B", "c"), join_predicate("B", "c", "C", "c")],
        Projection(count_star=True),
    )
    return query, catalog


class TestExcludedConfigurations:
    """Configurations that read false: where a counterexample exists, two
    orders of one table set whose estimates differ by far more than
    rounding."""

    @pytest.mark.parametrize(
        "config,closure,orders",
        [
            # Rule SS keeps the smallest eligible selectivity: joining R1
            # last divides by d_z = 1000 where R1 first divided by d_y = 100.
            (SSS, True, (("R1", "R2", "R3"), ("R2", "R3", "R1"))),
            # Without closure R1 x R3 is a cartesian product, and R2 then
            # brings two predicates of one class of which LS keeps one.
            (ELS, False, (("R1", "R2", "R3"), ("R1", "R3", "R2"))),
            # Likewise Rule REP applies its one constant per step, so the
            # cartesian order applies it once instead of twice.
            (SRS, False, (("R1", "R2", "R3"), ("R1", "R3", "R2"))),
        ],
        ids=["SSS", "ELS-no-closure", "SRS-no-closure"],
    )
    def test_example_1b_counterexamples(self, config, closure, orders):
        estimator = JoinSizeEstimator(
            example_1b_query(), example_1b_catalog(), config, apply_closure=closure
        )
        assert not estimator.order_independent
        first, second = (estimator.estimate(order) for order in orders)
        assert max(first, second) > 5 * min(first, second)

    def test_frequency_statistics_counterexample(self):
        query, catalog = _skewed_catalog()
        estimator = JoinSizeEstimator(query, catalog, ELS.but(use_frequency_stats=True))
        assert not estimator.order_independent
        first = estimator.estimate(["A", "B", "C"])
        second = estimator.estimate(["B", "C", "A"])
        assert first > 1.05 * second
        # Equation 2's selectivities on the same catalog agree for every order.
        plain = JoinSizeEstimator(query, catalog, ELS)
        assert plain.order_independent
        assert _rows_close(
            plain.estimate(["A", "B", "C"]), plain.estimate(["B", "C", "A"])
        )

    @settings(max_examples=25, deadline=None)
    @given(case=queries())
    def test_rule_m_and_rep_under_closure_read_false_though_order_free(self, case):
        # The property is sound, not complete.  Rule M applies every
        # predicate of a set exactly once, and under closure Rule REP
        # applies a class's constant once per added table of the class, so
        # no order changes their final estimate beyond rounding either.
        # They read false all the same, so their DP keeps one estimator
        # step per expansion and their plans stay the per-expansion ones.
        query, catalog = case
        for config in (SM, SRS):
            estimator = JoinSizeEstimator(query, catalog, config)
            assert not estimator.order_independent
            tables = sorted(estimator.query.tables)
            expected = estimator.estimate(tables)
            for order in itertools.permutations(tables):
                assert _rows_close(estimator.estimate(order), expected)
