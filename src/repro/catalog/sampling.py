"""Sampled statistics collection with Haas–Stokes distinct estimation.

Real systems do not scan every row at ANALYZE time; they sample.  Row
counts scale trivially, but the **column cardinality** ``d_x`` — the
statistic every formula in the paper divides by — cannot be scaled
linearly: a 10% sample of a column with 10 rows per value still sees most
values, while a 10% sample of a key column sees only 10% of them.

The standard answer is the Haas–Stokes "Duj1" estimator.  With a uniform
sample of ``n`` of ``N`` rows containing ``d`` distinct values of which
``f1`` appear exactly once in the sample:

    D = n * d / (n - f1 + f1 * n / N)

For a key column ``d = f1 = n`` and the estimate collapses to exactly
``N``; for heavily duplicated columns ``f1 -> 0`` and the estimate stays
at ``d`` (the sample has already seen everything).  The staleness
benchmark's companion question — how much estimation quality costs when
ANALYZE samples — is answered by running the estimators on sampled
catalogs (see ``tests/test_catalog_sampling.py``).
"""

from __future__ import annotations

import random
from dataclasses import replace
from operator import countOf
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..errors import CatalogError
from .collector import HistogramKind, _summarize_values, collect_table_stats
from .histogram import MostCommonValues
from .statistics import ColumnStats, TableStats

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.table import Table

__all__ = ["haas_stokes_distinct", "sample_column_stats", "sample_table_stats"]


def haas_stokes_distinct(
    sample_distinct: int, singletons: int, sample_size: int, total_rows: int
) -> int:
    """The Duj1 estimator of the column cardinality from a uniform sample.

    Args:
        sample_distinct: Distinct values observed in the sample (``d``).
        singletons: Values appearing exactly once in the sample (``f1``).
        sample_size: Rows sampled (``n``).
        total_rows: Rows in the table (``N``).

    Raises:
        CatalogError: on inconsistent inputs (f1 > d, n > N, ...).
    """
    if not 0 <= singletons <= sample_distinct <= sample_size:
        raise CatalogError(
            f"inconsistent sample: d={sample_distinct}, f1={singletons}, "
            f"n={sample_size}"
        )
    if sample_size > total_rows:
        raise CatalogError(
            f"sample of {sample_size} exceeds table of {total_rows} rows"
        )
    if sample_size == 0:
        return 0
    if sample_size == total_rows:
        return sample_distinct
    denominator = sample_size - singletons + singletons * sample_size / total_rows
    if denominator <= 0:
        return total_rows  # all singletons in a tiny sample: key-like
    estimate = sample_size * sample_distinct / denominator
    return max(sample_distinct, min(total_rows, round(estimate)))


def sample_column_stats(
    values: Sequence,
    total_rows: int,
    histogram: HistogramKind = HistogramKind.EQUI_DEPTH,
    buckets: int = 10,
    mcv_k: int = 0,
) -> ColumnStats:
    """Column statistics from an already drawn sample of values."""
    counts, stats = _summarize_values(values, histogram, buckets, mcv_k)
    distinct = haas_stokes_distinct(
        len(counts), countOf(counts.values(), 1), len(values), total_rows
    )
    mcv = None
    if stats.mcv is not None:
        scale = total_rows / len(values)
        mcv = MostCommonValues(
            {v: max(1, round(c * scale)) for v, c in stats.mcv.entries.items()},
            total_rows,
        )
    return replace(stats, distinct=distinct, mcv=mcv)


def sample_table_stats(
    table: "Table",
    sample_fraction: float,
    histogram: HistogramKind = HistogramKind.EQUI_DEPTH,
    buckets: int = 10,
    mcv_k: int = 0,
    seed: int = 0,
    columns: Optional[List[str]] = None,
) -> TableStats:
    """ANALYZE on a uniform row sample.

    ``sample_fraction=1.0`` delegates to the exact collector.  The table's
    row count is taken exactly (the storage engine knows it); only
    column-level statistics come from the sample.

    Raises:
        CatalogError: for a fraction outside (0, 1].
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise CatalogError(f"sample fraction must be in (0, 1], got {sample_fraction}")
    if sample_fraction == 1.0:
        return collect_table_stats(table, histogram, buckets, mcv_k, columns)
    names = columns if columns is not None else list(table.schema.column_names)
    total = table.row_count
    sample_size = max(1, round(total * sample_fraction)) if total else 0
    # ``Random.sample`` picks positions from the population's length alone,
    # so sampling positions selects the same rows as sampling the rows.
    picked = random.Random(seed).sample(range(total), sample_size)
    stored = table.columns()
    stats = {}
    for name in names:
        values = list(map(stored[table.schema.index_of(name)].__getitem__, picked))
        stats[name] = sample_column_stats(values, total, histogram, buckets, mcv_k)
    return TableStats(row_count=table.row_count, columns=stats)
