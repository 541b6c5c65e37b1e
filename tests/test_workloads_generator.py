"""Table spec and database builder tests."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import ColumnSpec, Distribution, TableSpec, build_database
from repro.workloads.generator import generate_columns


class TestTableSpec:
    def test_uniform_shortcut(self):
        spec = TableSpec.uniform("R", 100, {"x": 10, "y": 5})
        assert spec.rows == 100
        assert spec.columns["x"].distinct == 10
        assert spec.columns["x"].distribution is Distribution.UNIFORM

    def test_negative_rows_rejected(self):
        with pytest.raises(WorkloadError):
            TableSpec("R", -5, {"x": ColumnSpec(1)})

    def test_no_columns_rejected(self):
        with pytest.raises(WorkloadError):
            TableSpec("R", 5, {})


class TestGenerateColumns:
    def test_all_columns_generated(self):
        spec = TableSpec(
            "R",
            500,
            {
                "u": ColumnSpec(distinct=50),
                "z": ColumnSpec(distinct=20, distribution=Distribution.ZIPF, skew=1.2),
            },
        )
        columns = generate_columns(spec, np.random.default_rng(0))
        assert len(columns["u"]) == 500 and len(columns["z"]) == 500
        assert len(set(columns["u"])) == 50
        assert len(set(columns["z"])) == 20


class TestBuildDatabase:
    def test_loads_and_analyzes(self):
        specs = [
            TableSpec.uniform("A", 200, {"x": 20}),
            TableSpec.uniform("B", 300, {"y": 30}),
        ]
        db = build_database(specs, seed=1)
        assert db.true_count("A") == 200
        assert db.catalog.stats("A").row_count == 200
        assert db.catalog.column_stats("A", "x").distinct == 20
        assert db.catalog.column_stats("B", "y").distinct == 30

    def test_analyze_can_be_skipped(self):
        db = build_database([TableSpec.uniform("A", 10, {"x": 2})], analyze=False)
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            db.catalog.stats("A")

    def test_deterministic_under_seed(self):
        specs = [TableSpec.uniform("A", 100, {"x": 10})]
        a = build_database(specs, seed=9).table("A").rows()
        b = build_database(specs, seed=9).table("A").rows()
        assert a == b

    def test_different_seeds_differ(self):
        specs = [TableSpec.uniform("A", 100, {"x": 10})]
        a = build_database(specs, seed=1).table("A").rows()
        b = build_database(specs, seed=2).table("A").rows()
        assert a != b

    def test_mcv_option_flows_through(self):
        db = build_database(
            [TableSpec.uniform("A", 100, {"x": 4})], seed=0, mcv_k=4
        )
        stats = db.catalog.column_stats("A", "x")
        assert stats.mcv is not None
        assert stats.mcv.covered_fraction == pytest.approx(1.0)


class TestPaperSpecs:
    def test_smbg_statistics_exact(self):
        from repro.workloads import load_smbg_database

        db = load_smbg_database(scale=0.05, seed=3)
        stats = db.catalog
        assert stats.stats("S").row_count == 50
        assert stats.column_stats("S", "s").distinct == 50
        assert stats.stats("G").row_count == 5000
        assert stats.column_stats("G", "g").distinct == 5000

    def test_smbg_true_count_is_selection_size(self):
        """After s < t, every join subset has exactly |sigma(S)| rows."""
        from repro.analysis import true_join_size
        from repro.workloads import load_smbg_database, smbg_query

        db = load_smbg_database(scale=0.05, seed=3)
        query = smbg_query(threshold=10)  # s < 10 over keys 1..50 -> 9 rows
        assert true_join_size(query, db) == 9

    def test_scaled_catalog(self):
        from repro.workloads import smbg_catalog

        catalog = smbg_catalog(scale=0.1)
        assert catalog.stats("S").row_count == 100
        assert catalog.stats("G").row_count == 10000

    @pytest.mark.parametrize("scale", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_scale_rejected(self, scale):
        from repro.workloads import smbg_catalog, smbg_specs

        with pytest.raises(WorkloadError, match="scale must be finite and > 0"):
            smbg_specs(scale)
        with pytest.raises(WorkloadError, match="scale must be finite and > 0"):
            smbg_catalog(scale)
