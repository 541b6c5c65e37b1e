"""ANALYZE collector tests: exact statistics from stored data."""

import math
import random

import pytest

from repro.catalog import HistogramKind, TableSchema, collect_column_stats, collect_table_stats
from repro.catalog.histogram import EquiDepthHistogram, EquiWidthHistogram
from repro.catalog.schema import ColumnDef, ColumnType
from repro.storage import Database, Table


def make_table(values, name="R", column="x"):
    table = Table(TableSchema.of(name, column))
    table.extend([(v,) for v in values])
    return table


class TestColumnCollection:
    def test_exact_distinct_count(self):
        table = make_table([1, 2, 2, 3, 3, 3])
        stats = collect_column_stats(table, "x")
        assert stats.distinct == 3

    def test_min_max(self):
        stats = collect_column_stats(make_table([5, 1, 9]), "x")
        assert stats.low == 1 and stats.high == 9

    def test_equi_depth_default(self):
        stats = collect_column_stats(make_table(list(range(100))), "x")
        assert isinstance(stats.histogram, EquiDepthHistogram)

    def test_equi_width_option(self):
        stats = collect_column_stats(
            make_table(list(range(100))), "x", histogram=HistogramKind.EQUI_WIDTH
        )
        assert isinstance(stats.histogram, EquiWidthHistogram)

    def test_no_histogram_option(self):
        stats = collect_column_stats(
            make_table([1, 2]), "x", histogram=HistogramKind.NONE
        )
        assert stats.histogram is None

    def test_mcv_collection(self):
        stats = collect_column_stats(make_table([1, 1, 1, 2]), "x", mcv_k=1)
        assert stats.mcv is not None
        assert stats.mcv.equality_fraction(1) == 0.75

    def test_mcv_disabled_by_default(self):
        stats = collect_column_stats(make_table([1, 1]), "x")
        assert stats.mcv is None

    def test_string_column_has_no_range_or_histogram(self):
        table = Table(TableSchema.of("R", ColumnDef("s", ColumnType.STR)))
        table.extend([("a",), ("b",), ("a",)])
        stats = collect_column_stats(table, "s")
        assert stats.distinct == 2
        assert stats.low is None and stats.histogram is None

    def test_empty_table(self):
        stats = collect_column_stats(make_table([]), "x")
        assert stats.distinct == 0
        assert stats.histogram is None


class TestTableCollection:
    def test_all_columns_collected(self):
        table = Table(TableSchema.of("R", "a", "b"))
        table.extend([(1, 10), (2, 10)])
        stats = collect_table_stats(table)
        assert stats.row_count == 2
        assert stats.column("a").distinct == 2
        assert stats.column("b").distinct == 1

    def test_restricted_columns(self):
        table = Table(TableSchema.of("R", "a", "b"))
        table.extend([(1, 10)])
        stats = collect_table_stats(table, columns=["a"])
        assert stats.has_column("a") and not stats.has_column("b")

    def test_collected_stats_satisfy_invariants(self):
        # distinct <= row_count must hold or TableStats construction fails.
        table = make_table([7] * 50)
        stats = collect_table_stats(table)
        assert stats.column("x").distinct == 1
        assert stats.row_count == 50


class TestNaNColumns:
    """A column containing NaN gets no range statistics, in any row order."""

    ROWS = [(float("nan"), 3), (1.5, 1), (math.nan, 2), (-2.0, 3), (math.nan, 1),
            (7.25, 2), (float("nan"), 3), (1.5, 1), (0.0, 2), (3.0, 3)]

    def analyzed(self, rows, histogram):
        database = Database()
        schema = TableSchema.of("R", ColumnDef("f", ColumnType.FLOAT), "k")
        database.load_rows(schema, rows)
        database.analyze(histogram=histogram, mcv_k=3)
        return database.catalog.stats("R")

    @pytest.mark.parametrize("histogram", list(HistogramKind))
    def test_no_range_statistics(self, histogram):
        stats = self.analyzed(self.ROWS, histogram).column("f")
        assert (stats.low, stats.high, stats.histogram) == (None, None, None)
        assert stats.distinct == 8  # each NaN object is its own value
        assert stats.mcv is not None and stats.mcv.entries[1.5] == 2

    @pytest.mark.parametrize("histogram", list(HistogramKind))
    def test_shuffled_rows_give_the_same_catalog(self, histogram):
        expected = repr(self.analyzed(self.ROWS, histogram))
        for seed in range(20):
            rows = list(self.ROWS)
            random.Random(seed).shuffle(rows)
            assert repr(self.analyzed(rows, histogram)) == expected
