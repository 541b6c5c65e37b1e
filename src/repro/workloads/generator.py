"""Synthetic table generation from declarative specs.

A :class:`TableSpec` says how many rows a table has and, per column, how
many distinct values and under which distribution.  :func:`build_database`
turns a list of specs into a loaded, ANALYZEd :class:`Database`, which is
everything a benchmark needs to measure estimated-versus-true join sizes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..catalog.collector import HistogramKind
from ..catalog.schema import TableSchema
from ..errors import WorkloadError
from ..storage.database import Database
from .distributions import uniform_column, zipf_column

__all__ = ["Distribution", "ColumnSpec", "TableSpec", "generate_columns", "build_database"]


class Distribution(enum.Enum):
    UNIFORM = "uniform"
    ZIPF = "zipf"


@dataclass(frozen=True)
class ColumnSpec:
    """How to generate one column.

    Attributes:
        distinct: Target column cardinality (exact for both distributions).
        distribution: Value frequency shape.
        skew: Zipf exponent (ignored for uniform columns).
        low: Smallest domain value; the domain is ``low .. low+distinct-1``.
            Overlapping domains across tables realize the containment
            assumption (the smaller domain is a subset of the larger).
    """

    distinct: int
    distribution: Distribution = Distribution.UNIFORM
    skew: float = 1.0
    low: int = 1


@dataclass(frozen=True)
class TableSpec:
    """A synthetic table: a name, a row count, and its column specs."""

    name: str
    rows: int
    columns: Mapping[str, ColumnSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rows < 0:
            raise WorkloadError(f"table {self.name!r} has negative rows")
        if not self.columns:
            raise WorkloadError(f"table {self.name!r} needs at least one column")
        object.__setattr__(self, "columns", dict(self.columns))

    @classmethod
    def uniform(cls, name: str, rows: int, distincts: Mapping[str, int]) -> "TableSpec":
        """All-uniform columns given their cardinalities (the paper's shape)."""
        return cls(
            name,
            rows,
            {column: ColumnSpec(distinct=d) for column, d in distincts.items()},
        )


def _check_scale(scale: float) -> None:
    """Reject a table-size scale factor that is not finite and positive."""
    if not (math.isfinite(scale) and scale > 0):
        raise WorkloadError(f"scale must be finite and > 0, got {scale}")


def generate_columns(
    spec: TableSpec, rng: np.random.Generator
) -> Dict[str, List[int]]:
    """Generate all column value lists for one table spec."""
    columns: Dict[str, List[int]] = {}
    for name, column_spec in spec.columns.items():
        if column_spec.distribution is Distribution.UNIFORM:
            columns[name] = uniform_column(
                spec.rows, column_spec.distinct, rng, low=column_spec.low
            )
        else:
            columns[name] = zipf_column(
                spec.rows,
                column_spec.distinct,
                column_spec.skew,
                rng,
                low=column_spec.low,
            )
    return columns


def build_database(
    specs: Sequence[TableSpec],
    seed: int = 0,
    analyze: bool = True,
    histogram: HistogramKind = HistogramKind.EQUI_DEPTH,
    buckets: int = 10,
    mcv_k: int = 0,
) -> Database:
    """Generate, load, and (optionally) ANALYZE a database from specs.

    Args:
        specs: One spec per table.
        seed: Seed for the shared random generator; identical seeds produce
            identical databases.
        analyze: Collect catalog statistics after loading.
        histogram: Histogram kind for ANALYZE.
        buckets: Histogram bucket count.
        mcv_k: Most-common-values list size (0 disables).
    """
    rng = np.random.default_rng(seed)
    database = Database()
    for spec in specs:
        schema = TableSchema.of(spec.name, *spec.columns.keys())
        columns = generate_columns(spec, rng)
        database.load_columns(schema, columns)
    if analyze:
        database.analyze(histogram=histogram, buckets=buckets, mcv_k=mcv_k)
    return database
