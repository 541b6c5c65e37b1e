"""Statistics collection (ANALYZE) over stored tables.

Given a :class:`~repro.storage.table.Table`, the collector computes exact
table and column cardinalities, min/max bounds for ordered columns, and
optionally histograms and most-common-values lists.  This plays the role of
Starburst's statistics utility: estimators only ever see what the collector
wrote into the catalog, never the data itself.

Each column is counted once into a ``collections.Counter``, and every
statistic is derived from its distinct values and their counts
(:func:`_summarize_values`); the sampled collector in
:mod:`repro.catalog.sampling` summarizes its sample the same way.
"""

from __future__ import annotations

import enum
import operator
from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple

from .histogram import _equi_depth_from_counts, _equi_width_from_counts, _mcv_from_counts
from .statistics import ColumnStats, TableStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..storage.table import Table

__all__ = ["HistogramKind", "collect_column_stats", "collect_table_stats"]


class HistogramKind(enum.Enum):
    """Which distribution summary ANALYZE should build, if any."""

    NONE = "none"
    EQUI_WIDTH = "equi-width"
    EQUI_DEPTH = "equi-depth"


def _summarize_values(
    values: Sequence, histogram: HistogramKind, buckets: int, mcv_k: int
) -> Tuple[Counter, ColumnStats]:
    """Count a column's values once and derive its statistics from the counts.

    Returns the frequency map (value -> row count, in first-seen order) and
    the column's exact statistics.

    Range statistics (``low``, ``high``, histogram) exist only for a
    non-empty column whose every value is an ``int`` or ``float`` (not a
    ``bool``) and none is NaN.  NaN compares false with everything, so it
    has no place in a range; a column containing one gets no range
    statistics, like a non-numeric column, whatever its row order.

    Equal values of different types share one key, the first seen.  So on a
    column mixing ``1`` and ``1.0`` an equi-depth boundary may be ``1``
    where a sort of all values puts ``1.0``; the two compare equal.
    """
    counts = Counter(values)
    low = high = hist = None
    if counts and _orderable_numeric(values, counts.keys()):
        low = min(counts)
        high = max(counts)
        if histogram is HistogramKind.EQUI_WIDTH:
            hist = _equi_width_from_counts(counts, len(values), buckets)
        elif histogram is HistogramKind.EQUI_DEPTH:
            hist = _equi_depth_from_counts(counts, len(values), buckets)
    mcv = _mcv_from_counts(counts, len(values), mcv_k) if mcv_k > 0 and counts else None
    stats = ColumnStats(distinct=len(counts), low=low, high=high, histogram=hist, mcv=mcv)
    return counts, stats


def _orderable_numeric(values: Sequence, keys: Iterable) -> bool:
    """Every value a non-bool ``int``/``float``, and no key NaN.

    The type check reads the values, not the keys: ``True`` merges into a
    key ``1`` seen first, and must still make the column non-numeric.
    """
    kinds = set(map(type, values))
    if not all(
        issubclass(kind, (int, float)) and not issubclass(kind, bool) for kind in kinds
    ):
        return False
    # Only a float can be NaN, the one value unequal to itself.
    return not any(issubclass(kind, float) for kind in kinds) or not any(
        map(operator.ne, keys, keys)
    )


def collect_column_stats(
    table: "Table",
    column: str,
    histogram: HistogramKind = HistogramKind.EQUI_DEPTH,
    buckets: int = 10,
    mcv_k: int = 0,
) -> ColumnStats:
    """Compute statistics for one column of a stored table.

    Reads the table's cached column tuple and summarizes it with
    :func:`_summarize_values`.

    Args:
        table: Source table.
        column: Column name.
        histogram: Distribution summary to build for orderable numeric
            columns.
        buckets: Histogram bucket count.
        mcv_k: Most-common-values list size; 0 disables MCVs.
    """
    values = table.columns()[table.schema.index_of(column)]
    return _summarize_values(values, histogram, buckets, mcv_k)[1]


def collect_table_stats(
    table: "Table",
    histogram: HistogramKind = HistogramKind.EQUI_DEPTH,
    buckets: int = 10,
    mcv_k: int = 0,
    columns: Optional[list] = None,
) -> TableStats:
    """Compute statistics for a table (all columns unless restricted).

    Args:
        table: Source table.
        histogram: Distribution summary for numeric columns.
        buckets: Histogram bucket count.
        mcv_k: MCV list size; 0 disables MCVs.
        columns: Restrict collection to these columns (default: all).
    """
    names = columns if columns is not None else list(table.schema.column_names)
    stats: Dict[str, ColumnStats] = {}
    for name in names:
        stats[name] = collect_column_stats(table, name, histogram, buckets, mcv_k)
    return TableStats(row_count=table.row_count, columns=stats)
