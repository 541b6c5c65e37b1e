"""ANALYZE over one frequency map agrees with a collector that walks every value.

The collector counts each column once into a ``collections.Counter`` and
derives the distinct count, range, histograms and MCVs from the distinct
values.  The oracle below is the collector it replaced, kept here only:
``set`` for the distinct count, a per-value type check, ``min``/``max``
over all values, a full sort for the equi-depth histogram, a per-value
bucket walk for the equi-width histogram and a dict-count loop for MCVs.

On ints, floats, strings, empty and all-equal columns and ``0/1/True/False``
mixes the two agree byte for byte (``repr``), exact and sampled.  The one
allowed difference is on columns mixing equal values of different types
(``1`` and ``1.0``, ``0.0`` and ``-0.0``): a ``Counter`` keeps the first
seen key, so an equi-depth boundary may carry the other type than the
value a full sort puts at that position.  There the statistics must
compare equal and give identical ELS estimates.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    Catalog,
    ColumnStats,
    HistogramKind,
    TableSchema,
    TableStats,
    collect_column_stats,
    collect_table_stats,
    haas_stokes_distinct,
    sample_column_stats,
)
from repro.catalog.histogram import EquiDepthHistogram, EquiWidthHistogram, MostCommonValues
from repro.core import ELS, JoinSizeEstimator
from repro.sql import parse_query
from repro.storage import Table

# -- the oracle: the per-value collector ------------------------------------


def _old_equi_width(values: Sequence, buckets: int) -> Optional[EquiWidthHistogram]:
    if not values:
        return None
    low = min(values)
    high = max(values)
    total = len(values)
    if high == low:
        return EquiWidthHistogram(low, high, (total,), total, (1,))
    width = (float(high) - float(low)) / buckets
    counts = [0] * buckets
    distinct_sets: List[set] = [set() for _ in range(buckets)]
    for v in values:
        index = min(int((float(v) - float(low)) / width), buckets - 1)
        counts[index] += 1
        distinct_sets[index].add(v)
    return EquiWidthHistogram(
        low, high, tuple(counts), total, tuple(len(s) for s in distinct_sets)
    )


def _old_equi_depth(values: Sequence, buckets: int) -> Optional[EquiDepthHistogram]:
    if not values:
        return None
    ordered = sorted(values)
    total = len(ordered)
    buckets = min(buckets, total)
    depth = total / buckets
    boundaries = [ordered[0]]
    counts: List[int] = []
    start = 0
    for i in range(1, buckets + 1):
        end = total if i == buckets else int(round(i * depth))
        end = max(end, start)
        counts.append(end - start)
        boundary = ordered[min(end, total - 1)] if i < buckets else ordered[-1]
        boundaries.append(boundary)
        start = end
    return EquiDepthHistogram(tuple(boundaries), tuple(counts), total)


def _old_mcv(values: Sequence, k: int) -> MostCommonValues:
    counts: Dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    top = sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))[:k]
    return MostCommonValues(dict(top), len(values))


def _old_summary(values: Sequence, histogram: HistogramKind, buckets: int, mcv_k: int):
    numeric = bool(values) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    )
    low = min(values) if numeric else None
    high = max(values) if numeric else None
    hist = None
    if numeric and histogram is HistogramKind.EQUI_WIDTH:
        hist = _old_equi_width(values, buckets)
    elif numeric and histogram is HistogramKind.EQUI_DEPTH:
        hist = _old_equi_depth(values, buckets)
    mcv = _old_mcv(values, mcv_k) if mcv_k > 0 and values else None
    return low, high, hist, mcv


def old_collect(values: Sequence, histogram: HistogramKind, buckets: int, mcv_k: int):
    low, high, hist, mcv = _old_summary(values, histogram, buckets, mcv_k)
    return ColumnStats(
        distinct=len(set(values)), low=low, high=high, histogram=hist, mcv=mcv
    )


def old_sample(values: Sequence, total_rows: int, histogram, buckets: int, mcv_k: int):
    counts: Dict = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    singletons = sum(1 for c in counts.values() if c == 1)
    distinct = haas_stokes_distinct(len(counts), singletons, len(values), total_rows)
    low, high, hist, sampled_mcv = _old_summary(values, histogram, buckets, mcv_k)
    mcv = None
    if sampled_mcv is not None:
        scale = total_rows / len(values)
        mcv = MostCommonValues(
            {v: max(1, round(c * scale)) for v, c in sampled_mcv.entries.items()},
            total_rows,
        )
    return ColumnStats(distinct=distinct, low=low, high=high, histogram=hist, mcv=mcv)


# -- strategies --------------------------------------------------------------

INTS = st.lists(st.integers(-40, 40), max_size=60)
# ``+ 0.0`` turns -0.0 into 0.0: a signed zero mixed with 0.0 is the
# equal-but-different-type case, covered separately.
FLOATS = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.5, 1.5, 2.25, -3.0]),
        st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: x + 0.0),
    ),
    max_size=60,
)
STRINGS = st.lists(
    st.one_of(st.sampled_from(["a", "b", "ab", ""]), st.text(max_size=3)), max_size=60
)
ALL_EQUAL = st.builds(
    lambda value, n: [value] * n,
    st.one_of(st.integers(-5, 5), st.floats(-10, 10).map(lambda x: x + 0.0), st.text(max_size=2)),
    st.integers(1, 40),
)
BOOL_MIXES = st.lists(st.sampled_from([0, 1, True, False]), max_size=60)
COLUMNS = st.one_of(INTS, FLOATS, STRINGS, ALL_EQUAL, BOOL_MIXES, st.just([]))
EQUAL_TYPE_MIXES = st.lists(
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2, 2.0, 3, 3.5, 5, 5.0]), min_size=1, max_size=60
)
SETTINGS = st.tuples(
    st.sampled_from(list(HistogramKind)), st.integers(1, 12), st.sampled_from([0, 1, 3, 10])
)


def table_of(values: Sequence) -> Table:
    return Table.from_columns(TableSchema.of("R", "x"), {"x": values})


def new_collect(values: Sequence, histogram, buckets: int, mcv_k: int) -> ColumnStats:
    return collect_column_stats(table_of(values), "x", histogram, buckets, mcv_k)


# -- byte-identical cases ----------------------------------------------------


class TestByteIdentical:
    @settings(max_examples=300, deadline=None)
    @given(COLUMNS, SETTINGS)
    def test_exact_collector_matches_oracle(self, values, setting):
        assert repr(new_collect(values, *setting)) == repr(old_collect(values, *setting))

    @settings(max_examples=200, deadline=None)
    @given(COLUMNS.filter(bool), SETTINGS, st.integers(0, 500))
    def test_sampled_collector_matches_oracle(self, values, setting, extra_rows):
        total = len(values) + extra_rows
        new = sample_column_stats(values, total, *setting)
        assert repr(new) == repr(old_sample(values, total, *setting))

    @settings(max_examples=100, deadline=None)
    @given(INTS, INTS, SETTINGS)
    def test_table_stats_match_oracle(self, xs, ys, setting):
        n = min(len(xs), len(ys))
        table = Table.from_columns(TableSchema.of("R", "x", "y"), {"x": xs[:n], "y": ys[:n]})
        expected = TableStats(
            row_count=n,
            columns={"x": old_collect(xs[:n], *setting), "y": old_collect(ys[:n], *setting)},
        )
        assert repr(collect_table_stats(table, *setting)) == repr(expected)


# -- equal values of different types -----------------------------------------


def _equal_histograms(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if type(a) is not type(b) or a.total != b.total or a.counts != b.counts:
        return False
    if isinstance(a, EquiDepthHistogram):
        return a.boundaries == b.boundaries
    return (a.low, a.high, a.distinct_per_bucket) == (b.low, b.high, b.distinct_per_bucket)


def _els_estimates(stats: ColumnStats, rows: int) -> List[float]:
    catalog = Catalog.from_stats({"S": (50, {"y": 7})})
    catalog.register(TableSchema.of("R", "x"), TableStats(rows, {"x": stats}))
    estimates = []
    for predicate in ("x < 2", "x <= 1", "x = 1", "x > 0", "x >= 3", "x BETWEEN 1 AND 3"):
        query = parse_query(
            f"SELECT COUNT(*) FROM R, S WHERE R.x = S.y AND R.{predicate}",
            schemas={"R": ["x"], "S": ["y"]},
        )
        estimator = JoinSizeEstimator(query, catalog, ELS)
        estimates.append(estimator.estimate(["R", "S"]))
        estimates.append(estimator.estimate(["S", "R"]))
    return estimates


class TestEqualValuesOfDifferentTypes:
    @settings(max_examples=300, deadline=None)
    @given(EQUAL_TYPE_MIXES, SETTINGS)
    def test_statistics_compare_equal_with_identical_estimates(self, values, setting):
        new = new_collect(values, *setting)
        old = old_collect(values, *setting)
        assert new.distinct == old.distinct
        assert (new.low, new.high) == (old.low, old.high)
        assert _equal_histograms(new.histogram, old.histogram)
        assert new.mcv == old.mcv
        new_estimates = _els_estimates(new, len(values))
        old_estimates = _els_estimates(old, len(values))
        assert repr(new_estimates) == repr(old_estimates)

    def test_boundary_type_may_differ(self):
        """The documented difference: a full sort puts the later ``2.0`` at
        the upper boundaries, the counter keeps the first-seen ``2``."""
        old = old_collect([1, 2, 2.0], HistogramKind.EQUI_DEPTH, 2, 0)
        new = new_collect([1, 2, 2.0], HistogramKind.EQUI_DEPTH, 2, 0)
        assert repr(old.histogram.boundaries) == "(1, 2.0, 2.0)"
        assert repr(new.histogram.boundaries) == "(1, 2, 2)"
        assert new.histogram.boundaries == old.histogram.boundaries


# -- NaN: one rule, whatever the row order -----------------------------------

NAN_COLUMNS = st.lists(
    st.one_of(st.floats(-100, 100, allow_nan=False), st.just(math.nan), st.builds(float, st.just("nan"))),
    min_size=1,
    max_size=40,
).filter(lambda values: any(math.isnan(v) for v in values))


class TestNaN:
    @settings(max_examples=200, deadline=None)
    @given(NAN_COLUMNS, SETTINGS, st.integers(0, 2**32 - 1))
    def test_nan_column_has_no_range_in_any_row_order(self, values, setting, seed):
        stats = new_collect(values, *setting)
        assert (stats.low, stats.high, stats.histogram) == (None, None, None)
        shuffled = list(values)
        random.Random(seed).shuffle(shuffled)
        assert repr(new_collect(shuffled, *setting)) == repr(stats)
