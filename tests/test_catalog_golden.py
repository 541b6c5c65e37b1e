"""Catalog golden: ``repr`` of every ANALYZEd ``TableStats``, pinned.

The golden file ``tests/golden/catalog.txt`` records the statistics
ANALYZE writes for chain, star, snowflake, cycle and Zipf-chain
workloads, the Section 8 S/M/B/G database and TPC-H-lite at scale 0.02,
under every combination of histogram kind (none, equi-width,
equi-depth), MCV list size (0 and 10) and sample fraction (1.0 and 0.5).
Estimators see the data only through these statistics, so any change to
the collector's distinct counts, ranges, histogram boundaries and counts,
MCV choice and tie-breaks, or to the sampled path, shows up here as a
byte difference.

Regenerate (only when a statistics change is intended) with::

    PYTHONPATH=src python -m tests.test_catalog_golden
"""

from __future__ import annotations

import pathlib
import random
from typing import Iterator, List, Tuple

from repro.catalog import HistogramKind
from repro.storage import Database
from repro.workloads import (
    TableSpec,
    build_database,
    chain_workload,
    cycle_workload,
    smbg_specs,
    snowflake_workload,
    star_workload,
    tpch_lite_specs,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "catalog.txt"

HISTOGRAMS = (HistogramKind.NONE, HistogramKind.EQUI_WIDTH, HistogramKind.EQUI_DEPTH)
MCV_SIZES = (0, 10)
SAMPLE_FRACTIONS = (1.0, 0.5)


def golden_specs() -> Iterator[Tuple[str, List[TableSpec]]]:
    """The pinned databases' table specs, labelled, in a fixed order."""
    yield "chain", chain_workload(4, random.Random(11), 50, 800).specs
    yield "star", star_workload(3, random.Random(12), (400, 900), (20, 150)).specs
    yield "snowflake", snowflake_workload(
        2, 1, random.Random(13), (400, 900), (50, 150), (10, 40)
    ).specs
    yield "cycle", cycle_workload(4, random.Random(14), 50, 600).specs
    yield "zipf-chain", chain_workload(3, random.Random(15), 100, 600, skew=1.0).specs
    yield "smbg", smbg_specs()
    yield "tpch-lite-0.02", tpch_lite_specs(0.02)


def render_catalog(label: str, database: Database) -> str:
    """Every table's statistics under every ANALYZE setting."""
    blocks = []
    for histogram in HISTOGRAMS:
        for mcv_k in MCV_SIZES:
            for fraction in SAMPLE_FRACTIONS:
                database.analyze(
                    histogram=histogram, mcv_k=mcv_k, sample_fraction=fraction, seed=3
                )
                blocks.append(
                    f"== {label} {histogram.value} mcv={mcv_k} fraction={fraction}\n"
                )
                for name in database.table_names():
                    blocks.append(f"{name} {database.catalog.stats(name)!r}\n")
    return "".join(blocks)


def render_catalogs() -> str:
    """Every pinned database's catalogs, in a fixed order."""
    return "".join(
        render_catalog(label, build_database(specs, seed=index, analyze=False))
        for index, (label, specs) in enumerate(golden_specs())
    )


def test_catalogs_match_golden_file():
    assert render_catalogs() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render_catalogs())
