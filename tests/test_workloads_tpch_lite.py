"""TPC-H-lite schema and query tests, with executed ground truth."""

import pytest

from repro.analysis import true_join_size
from repro.errors import WorkloadError
from repro.core import ELS, SM, JoinSizeEstimator
from repro.execution import Executor
from repro.optimizer import Optimizer
from repro.workloads import (
    load_tpch_lite,
    q3_customer_orders,
    q5_regional,
    q9_parts_suppliers,
    q_full_join,
    tpch_lite_specs,
)


@pytest.fixture(scope="module")
def tpch_db():
    return load_tpch_lite(scale=0.02, seed=3)


class TestSchema:
    def test_spec_shapes(self):
        specs = {spec.name: spec for spec in tpch_lite_specs(scale=0.1)}
        assert specs["region"].rows == 5  # dimensions do not scale
        assert specs["nation"].rows == 25
        assert specs["lineitem"].rows == 60000
        assert specs["orders"].columns["o_id"].distinct == specs["orders"].rows

    def test_foreign_keys_bounded_by_parents(self):
        specs = {spec.name: spec for spec in tpch_lite_specs(scale=0.02)}
        assert (
            specs["lineitem"].columns["l_order"].distinct
            <= specs["orders"].rows
        )
        assert specs["customer"].columns["c_nation"].distinct <= 25

    @pytest.mark.parametrize("scale", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(WorkloadError, match="scale must be finite and > 0"):
            tpch_lite_specs(scale)

    def test_database_loads_and_analyzes(self, tpch_db):
        assert tpch_db.catalog.stats("lineitem").row_count == 12000
        assert tpch_db.catalog.column_stats("region", "r_id").distinct == 5


class TestQueries:
    def test_q3_parses(self):
        query = q3_customer_orders(date_threshold=100)
        assert query.tables == ("customer", "orders", "lineitem")
        assert len(query.join_predicates) == 2
        assert len(query.constant_predicates) == 1

    def test_q5_has_region_constant(self):
        query = q5_regional(region_id=2)
        constants = query.constant_predicates
        assert len(constants) == 1
        assert constants[0].constant == 2

    def test_full_join_covers_six_tables(self):
        assert len(q_full_join().tables) == 6


class TestEstimationAccuracy:
    """ELS should be essentially exact on this FK-uniform schema."""

    @pytest.mark.parametrize(
        "query_factory",
        [q3_customer_orders, q9_parts_suppliers, q5_regional, q_full_join],
        ids=["q3", "q9", "q5", "full"],
    )
    def test_els_nearly_exact(self, tpch_db, query_factory):
        query = query_factory()
        truth = true_join_size(query, tpch_db)
        estimator = JoinSizeEstimator(query, tpch_db.catalog, ELS)
        estimate = estimator.estimate(list(query.tables))
        assert estimate == pytest.approx(truth, rel=0.1)

    def test_rule_m_underestimates_q5(self, tpch_db):
        """Q5's r_id = const enters the n_region equivalence class; Rule M
        multiplies the redundant constant-propagation effects."""
        query = q5_regional()
        truth = true_join_size(query, tpch_db)
        m_estimate = JoinSizeEstimator(query, tpch_db.catalog, SM).estimate(
            list(query.tables)
        )
        els_estimate = JoinSizeEstimator(query, tpch_db.catalog, ELS).estimate(
            list(query.tables)
        )
        assert m_estimate < truth * 0.5
        assert els_estimate == pytest.approx(truth, rel=0.1)

    def test_optimized_plans_return_truth(self, tpch_db):
        optimizer = Optimizer(tpch_db.catalog)
        executor = Executor(tpch_db)
        for factory in (q3_customer_orders, q9_parts_suppliers, q5_regional):
            query = factory()
            result = optimizer.optimize(query, ELS)
            run = executor.count(result.plan)
            assert run.count == true_join_size(query, tpch_db)
