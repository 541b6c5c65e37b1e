"""Plan-identity golden: DP, bushy DP and greedy plans pinned byte for byte.

The golden file ``tests/golden/plans.txt`` records, for five join-graph
shapes at 5, 7 and 9 relations, the ``explain()`` text of the plan each
enumerator chooses under ELS, plus ``repr`` of its exact estimated cost
and of the ELS estimate along the plan's leaf order.  Any change to the
estimator's eligible-predicate order, the enumerators' cost summation or
their tie-breaks shows up here as a byte difference.

Regenerate (only when a plan change is intended) with::

    PYTHONPATH=src python -m tests.test_plan_golden
"""

from __future__ import annotations

import pathlib
import random

from repro import ELS, Optimizer
from repro.workloads import (
    GeneratedWorkload,
    build_database,
    chain_workload,
    clique_workload,
    cycle_workload,
    snowflake_workload,
    star_workload,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "plans.txt"

SHAPES = ("chain", "star", "snowflake", "cycle", "clique")
SIZES = (5, 7, 9)
ENUMERATORS = ("dp", "dp-bushy", "greedy")
_SNOWFLAKE_SHAPE = {5: (2, 1), 7: (2, 2), 9: (4, 1)}


def plan_workload(shape: str, size: int, rng: random.Random) -> GeneratedWorkload:
    """One small-table join graph of ``size`` relations (5, 7 or 9)."""
    if shape == "chain":
        return chain_workload(size, rng, 20, 200, local_predicate_probability=0.5)
    if shape == "cycle":
        return cycle_workload(size, rng, 20, 200)
    if shape == "clique":
        return clique_workload(size, rng, 20, 200)
    if shape == "star":
        return star_workload(size - 1, rng, (200, 1000), (20, 200))
    dims, subdims = _SNOWFLAKE_SHAPE[size]
    return snowflake_workload(dims, subdims, rng, (200, 1000), (20, 200), (10, 50))


def render_plans() -> str:
    """Every shape x size x enumerator plan, in a fixed order."""
    blocks = []
    index = 0
    for shape in SHAPES:
        for size in SIZES:
            workload = plan_workload(shape, size, random.Random(7919 + index))
            catalog = build_database(workload.specs, seed=index).catalog
            for enumerator in ENUMERATORS:
                result = Optimizer(catalog, enumerator=enumerator).optimize(
                    workload.query, ELS
                )
                blocks.append(
                    f"== {shape}{size} {enumerator}\n"
                    f"{result.explain()}\n"
                    f"cost {result.estimated_cost!r}\n"
                    f"rows {result.estimate.rows!r}\n"
                )
            index += 1
    return "".join(blocks)


def test_plans_match_golden_file():
    assert render_plans() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render_plans())
