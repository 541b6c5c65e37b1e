"""TPC-H-lite: a realistic miniature warehouse schema and query set.

The paper's introduction motivates join-size estimation with "user
generated quer[ies] involv[ing] multiple joins"; the de-facto standard
embodiment is the TPC-H schema.  This module scales it down to the
library's in-memory engine:

======== ================================ ====================
table    columns                          rows (scale = 1.0)
======== ================================ ====================
region   r_id (key)                       5
nation   n_id (key), n_region (fk)        25
supplier s_id (key), s_nation (fk)        1 000
customer c_id (key), c_nation (fk)        15 000
part     p_id (key), p_size (1..50)       20 000
orders   o_id (key), o_customer (fk),     150 000
         o_date (1..2400)
lineitem l_order (fk), l_part (fk),       600 000
         l_supplier (fk), l_quantity
======== ================================ ====================

Foreign keys draw uniformly from the parent's key domain (containment by
construction), which means the paper's assumptions hold and ELS's
estimates can be validated against executed counts on a schema people
recognize.  The default ``scale=0.05`` keeps full query execution under a
second.

Four canonical query shapes are provided, from 3-way to 6-way joins.
"""

from __future__ import annotations

from typing import Dict, List

from ..sql.parser import parse_query
from ..sql.query import Query
from ..storage.database import Database
from .generator import ColumnSpec, TableSpec, _check_scale, build_database

__all__ = [
    "TPCH_SCHEMAS",
    "tpch_lite_specs",
    "load_tpch_lite",
    "q3_customer_orders",
    "q9_parts_suppliers",
    "q5_regional",
    "q_full_join",
]

#: Column names per table, for unqualified-name resolution in queries.
TPCH_SCHEMAS: Dict[str, List[str]] = {
    "region": ["r_id"],
    "nation": ["n_id", "n_region"],
    "supplier": ["s_id", "s_nation"],
    "customer": ["c_id", "c_nation"],
    "part": ["p_id", "p_size"],
    "orders": ["o_id", "o_customer", "o_date"],
    "lineitem": ["l_order", "l_part", "l_supplier", "l_quantity"],
}

_BASE_ROWS = {
    "region": 5,
    "nation": 25,
    "supplier": 1000,
    "customer": 15000,
    "part": 20000,
    "orders": 150000,
    "lineitem": 600000,
}

#: Small dimension tables that do not shrink with the scale factor.
_UNSCALED = ("region", "nation")

DATE_DOMAIN = 2400  # "days" spanned by o_date
SIZE_DOMAIN = 50  # p_size and l_quantity domain


def _rows(table: str, scale: float) -> int:
    base = int(_BASE_ROWS[table])
    if table in _UNSCALED:
        return base
    return max(1, int(base * scale))


def tpch_lite_specs(scale: float = 0.05) -> List[TableSpec]:
    """Table specs for the miniature TPC-H schema at a scale factor.

    Raises:
        WorkloadError: unless ``scale`` is finite and positive.
    """
    _check_scale(scale)
    region = _rows("region", scale)
    nation = _rows("nation", scale)
    supplier = _rows("supplier", scale)
    customer = _rows("customer", scale)
    part = _rows("part", scale)
    orders = _rows("orders", scale)
    lineitem = _rows("lineitem", scale)

    def key(n: int) -> ColumnSpec:
        return ColumnSpec(distinct=n)

    def fk(parent_rows: int, child_rows: int) -> ColumnSpec:
        return ColumnSpec(distinct=min(parent_rows, child_rows))

    return [
        TableSpec("region", region, {"r_id": key(region)}),
        TableSpec(
            "nation", nation, {"n_id": key(nation), "n_region": fk(region, nation)}
        ),
        TableSpec(
            "supplier",
            supplier,
            {"s_id": key(supplier), "s_nation": fk(nation, supplier)},
        ),
        TableSpec(
            "customer",
            customer,
            {"c_id": key(customer), "c_nation": fk(nation, customer)},
        ),
        TableSpec(
            "part",
            part,
            {"p_id": key(part), "p_size": ColumnSpec(distinct=min(SIZE_DOMAIN, part))},
        ),
        TableSpec(
            "orders",
            orders,
            {
                "o_id": key(orders),
                "o_customer": fk(customer, orders),
                "o_date": ColumnSpec(distinct=min(DATE_DOMAIN, orders)),
            },
        ),
        TableSpec(
            "lineitem",
            lineitem,
            {
                "l_order": fk(orders, lineitem),
                "l_part": fk(part, lineitem),
                "l_supplier": fk(supplier, lineitem),
                "l_quantity": ColumnSpec(distinct=min(SIZE_DOMAIN, lineitem)),
            },
        ),
    ]


def load_tpch_lite(scale: float = 0.05, seed: int = 0, mcv_k: int = 0) -> Database:
    """Generate and ANALYZE the TPC-H-lite database."""
    return build_database(tpch_lite_specs(scale), seed=seed, mcv_k=mcv_k)


def _q(text: str) -> Query:
    return parse_query(text, schemas=TPCH_SCHEMAS)


def q3_customer_orders(date_threshold: int = 300) -> Query:
    """Q3-shaped: customer >< orders >< lineitem with a date restriction."""
    return _q(
        "SELECT COUNT(*) FROM customer, orders, lineitem "
        f"WHERE c_id = o_customer AND o_id = l_order AND o_date < {date_threshold}"
    )


def q9_parts_suppliers(max_size: int = 10) -> Query:
    """Q9-shaped: lineitem >< part >< supplier with a part filter."""
    return _q(
        "SELECT COUNT(*) FROM lineitem, part, supplier "
        f"WHERE l_part = p_id AND l_supplier = s_id AND p_size < {max_size}"
    )


def q5_regional(region_id: int = 1) -> Query:
    """Q5-shaped: customer >< nation >< region >< orders for one region."""
    return _q(
        "SELECT COUNT(*) FROM customer, nation, region, orders "
        "WHERE c_nation = n_id AND n_region = r_id AND o_customer = c_id "
        f"AND r_id = {region_id}"
    )


def q_full_join(date_threshold: int = 120) -> Query:
    """A 6-way join across the whole schema with a tight date filter."""
    return _q(
        "SELECT COUNT(*) FROM customer, orders, lineitem, part, supplier, nation "
        "WHERE c_id = o_customer AND o_id = l_order AND l_part = p_id "
        "AND l_supplier = s_id AND s_nation = n_id "
        f"AND o_date < {date_threshold}"
    )
