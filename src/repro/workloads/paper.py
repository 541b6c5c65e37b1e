"""The paper's concrete setups: every worked example plus the Section 8 query.

Each helper returns the statistics catalog (and, where data is needed, the
table specs) exactly as printed in the paper, so tests and benchmarks can
assert the paper's numbers rather than re-deriving them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..catalog.statistics import Catalog
from ..sql.parser import parse_query
from ..sql.query import Query
from ..storage.database import Database
from .generator import TableSpec, _check_scale, build_database

__all__ = [
    "example_1b_catalog",
    "example_1b_query",
    "section6_catalog",
    "section6_query",
    "SMBG_ROWS",
    "SMBG_DISTINCTS",
    "smbg_catalog",
    "smbg_query",
    "smbg_specs",
    "load_smbg_database",
]


# ---------------------------------------------------------------------------
# Examples 1a/1b/2/3 (Sections 2, 3, 7): the three-table chain query.
# ---------------------------------------------------------------------------

def example_1b_catalog() -> Catalog:
    """Statistics of Example 1b.

    ``||R1||=100, ||R2||=1000, ||R3||=1000, d_x=10, d_y=100, d_z=1000``
    (column ``a`` is R1's projection column, modeled as a key-ish column).
    """
    return Catalog.from_stats(
        {
            "R1": (100, {"x": 10, "a": 100}),
            "R2": (1000, {"y": 100}),
            "R3": (1000, {"z": 1000}),
        }
    )


def example_1b_query() -> Query:
    """Example 1a's query: ``R1.x = R2.y AND R2.y = R3.z``."""
    return parse_query(
        "SELECT R1.a FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z"
    )


# ---------------------------------------------------------------------------
# Section 6: single-table j-equivalent join columns.
# ---------------------------------------------------------------------------

def section6_catalog() -> Catalog:
    """Statistics of the Section 6 example.

    ``||R1||=100, ||R2||=1000, d_x=100, d_y=10, d_w=50``.
    """
    return Catalog.from_stats(
        {
            "R1": (100, {"x": 100}),
            "R2": (1000, {"y": 10, "w": 50}),
        }
    )


def section6_query() -> Query:
    """``(R1.x = R2.y) AND (R1.x = R2.w)`` — closure adds ``R2.y = R2.w``."""
    return parse_query("SELECT * FROM R1, R2 WHERE R1.x = R2.y AND R1.x = R2.w")


# ---------------------------------------------------------------------------
# Section 8: the S (small), M (medium), B (big), G (giant) experiment.
# ---------------------------------------------------------------------------

#: Table cardinalities of the experiment: ``||S||=1000, ||M||=10000,
#: ||B||=50000, ||G||=100000``.
SMBG_ROWS: Dict[str, int] = {"S": 1000, "M": 10000, "B": 50000, "G": 100000}

#: Column cardinalities: every join column is a key
#: (``d_s=1000, d_m=10000, d_b=50000, d_g=100000``).
SMBG_DISTINCTS: Dict[str, Tuple[str, int]] = {
    "S": ("s", 1000),
    "M": ("m", 10000),
    "B": ("b", 50000),
    "G": ("g", 100000),
}


def smbg_catalog(scale: float = 1.0) -> Catalog:
    """The experiment's statistics, optionally scaled down uniformly.

    Raises:
        WorkloadError: unless ``scale`` is finite and positive.
    """
    _check_scale(scale)
    entries = {}
    for table, rows in SMBG_ROWS.items():
        column, distinct = SMBG_DISTINCTS[table]
        entries[table] = (
            max(1, int(rows * scale)),
            {column: max(1, int(distinct * scale))},
        )
    return Catalog.from_stats(entries)


def smbg_query(threshold: int = 100) -> Query:
    """The experiment query before PTC.

    ``SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND
    s < threshold`` — the paper uses ``s < 100``.
    """
    schemas = {"S": ["s"], "M": ["m"], "B": ["b"], "G": ["g"]}
    return parse_query(
        "SELECT COUNT(*) FROM S, M, B, G "
        f"WHERE s = m AND m = b AND b = g AND s < {threshold}",
        schemas=schemas,
    )


def smbg_specs(scale: float = 1.0) -> List[TableSpec]:
    """Data generation specs matching the experiment's statistics.

    Every join column is a key over ``1..rows`` so, with containment by
    construction (smaller domains are prefixes of larger ones), the true
    size of every join subset after ``s < 100`` is exactly the number of
    selected S-rows — the paper: "The correct join result size after any
    subset of joins has been performed can be shown to be exactly 100."

    Raises:
        WorkloadError: unless ``scale`` is finite and positive.
    """
    _check_scale(scale)
    specs = []
    for table, rows in SMBG_ROWS.items():
        column, distinct = SMBG_DISTINCTS[table]
        scaled_rows = max(1, int(rows * scale))
        scaled_distinct = max(1, int(distinct * scale))
        specs.append(TableSpec.uniform(table, scaled_rows, {column: scaled_distinct}))
    return specs


def load_smbg_database(scale: float = 1.0, seed: int = 0) -> Database:
    """Generate and ANALYZE the experiment database.

    The catalog is collected from the generated data, so the statistics
    the optimizer sees are exactly the paper's numbers (the generators hit
    the target cardinalities exactly).
    """
    return build_database(smbg_specs(scale), seed=seed)
