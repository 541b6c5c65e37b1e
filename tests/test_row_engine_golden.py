"""Row-engine golden: every operator's counters and the output rows, pinned.

The golden file ``tests/golden/row_engine.txt`` records, for a fixed set
of plans executed on the row engine, every operator's ``(label, rows_in,
rows_out, comparisons, pages_read)``, the total deadline tick units the
run charged, and a digest of the output rows in order.  The plans cover
the ELS plans of the ``answer`` benchmark queries (TPC-H-lite at a small
scale), sort-merge-only and nested-loops-only plans over chain, star,
cycle and Zipf data, multi-key sort-merge (closure on the S/M/B/G query),
residual predicates, key-less nested loops, alias self-joins and empty
inputs.  Any change to a join kernel's row order, comparison charging or
deadline accounting shows up here as a byte difference.  The same plans
check that ``Executor.count`` — the counting root — charges exactly what
materializing the result charges.

Regenerate (only when an execution change is intended) with::

    PYTHONPATH=src python -m tests.test_row_engine_golden
"""

from __future__ import annotations

import hashlib
import pathlib
import random
from typing import Any, Dict, Iterator, List, Tuple

from repro import ELS, Optimizer
from repro.execution import Executor
from repro.optimizer import JoinMethod, JoinPlan, ScanPlan
from repro.resilience import Deadline
from repro.sql import Op, join_predicate, local_predicate
from repro.storage import Database
from repro.workloads import (
    TableSpec,
    build_database,
    chain_workload,
    cycle_workload,
    q3_customer_orders,
    q5_regional,
    q9_parts_suppliers,
    q_full_join,
    smbg_query,
    smbg_specs,
    star_workload,
    tpch_lite_specs,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "row_engine.txt"

NL = (JoinMethod.NESTED_LOOPS,)
SM = (JoinMethod.SORT_MERGE,)


class CountingDeadline(Deadline):
    """A generous deadline that totals the tick units charged to it."""

    def __init__(self) -> None:
        super().__init__(1e9)
        self.units = 0

    def tick(self, count: int = 1, label: str = "") -> None:
        self.units += count
        super().tick(count, label)


def counters(result) -> List[Tuple[str, int, int, int, float]]:
    """Every operator's ``(label, rows_in, rows_out, comparisons, pages_read)``."""
    return [
        (op.label, op.rows_in, op.rows_out, op.comparisons, op.pages_read)
        for op in result.metrics.operators
    ]


def render_run(name: str, database: Database, plan, **executor_options) -> str:
    """One plan's operator counters, tick total and output digest."""
    deadline = CountingDeadline()
    executor = Executor(database, deadline=deadline, **executor_options)
    result = executor.execute(plan)
    hasher = hashlib.blake2b(digest_size=16)
    for row in result.rows:
        hasher.update(repr(row).encode())
    lines = [f"== {name}"]
    for label, rows_in, rows_out, comparisons, pages in counters(result):
        lines.append(
            f"{label} in={rows_in} out={rows_out} cmp={comparisons} pages={pages!r}"
        )
    lines.append(
        f"count {result.count} ticks {deadline.units} digest {hasher.hexdigest()}"
    )
    return "\n".join(lines) + "\n"


def _optimized(database: Database, query, methods=NL + SM, closure=True):
    optimizer = Optimizer(database.catalog, methods=methods)
    return optimizer.optimize(query, ELS, closure).plan


def _scan(database: Database, relation: str, base: str, *predicates) -> ScanPlan:
    width = database.table(base).schema.row_width_bytes
    return ScanPlan(relation, base, tuple(predicates), 1.0, 1.0, width)


def _join(method: JoinMethod, left, right, *predicates) -> JoinPlan:
    return JoinPlan(
        left, right, method, tuple(predicates), 1.0, 1.0, left.row_width + right.row_width
    )


Run = Tuple[str, Database, object]
#: A run plus the executor options it is executed with.
GoldenRun = Tuple[str, Database, object, Dict[str, Any]]


def _answer_runs() -> Iterator[Run]:
    smbg = build_database(smbg_specs(0.1), seed=11)
    yield "answer smbg", smbg, _optimized(smbg, smbg_query(30))
    tpch = build_database(tpch_lite_specs(0.02), seed=12)
    for label, query in (
        ("q3", q3_customer_orders()),
        ("q5", q5_regional()),
        ("q9", q9_parts_suppliers()),
        ("q_full_join", q_full_join()),
    ):
        yield f"answer {label}", tpch, _optimized(tpch, query)
    # Closure on the S/M/B/G query makes every later sort-merge multi-key.
    yield "smbg sort-merge closure", smbg, _optimized(smbg, smbg_query(30), SM)
    yield "smbg sort-merge no-closure", smbg, _optimized(
        smbg, smbg_query(30), SM, closure=False
    )
    yield "smbg nested-loops closure", smbg, _optimized(smbg, smbg_query(30), NL)


def _shape_runs() -> Iterator[Run]:
    shapes = (
        ("chain", lambda rng: chain_workload(4, rng, 20, 300, 0.5)),
        ("star", lambda rng: star_workload(3, rng, (200, 600), (20, 120))),
        ("cycle", lambda rng: cycle_workload(4, rng, 20, 250)),
        ("zipf", lambda rng: chain_workload(3, rng, 50, 300, skew=1.0)),
    )
    for index, (shape, make) in enumerate(shapes):
        workload = make(random.Random(4101 + index))
        database = build_database(workload.specs, seed=index)
        for tag, methods in (("sort-merge", SM), ("nested-loops", NL)):
            yield f"{shape} {tag}", database, _optimized(
                database, workload.query, methods
            )


def _handmade_runs() -> Iterator[Run]:
    database = build_database(
        [
            TableSpec.uniform("R", 300, {"a": 20, "b": 30}),
            TableSpec.uniform("S", 200, {"a": 25, "b": 10}),
            TableSpec.uniform("T", 40, {"a": 15, "b": 40}),
        ],
        seed=5,
    )
    R, S, T = (_scan(database, name, name) for name in "RST")
    ra_sa = join_predicate("R", "a", "S", "a")
    rb_sb = join_predicate("R", "b", "S", "b")
    rb_lt_sb = join_predicate("R", "b", "S", "b", Op.LT)
    empty_r = _scan(database, "R", "R", local_predicate("R", "a", Op.LT, 0))
    empty_s = _scan(database, "S", "S", local_predicate("S", "b", Op.GT, 10**6))
    filtered_r = _scan(
        database,
        "R",
        "R",
        local_predicate("R", "a", Op.LE, 12),
        local_predicate("R", "b", Op.NE, 3),
    )
    for method in (JoinMethod.SORT_MERGE, JoinMethod.NESTED_LOOPS):
        tag = "sort-merge" if method is JoinMethod.SORT_MERGE else "nested-loops"
        yield f"{tag} single key", database, _join(method, R, S, ra_sa)
        yield f"{tag} single key swapped", database, _join(method, S, R, ra_sa)
        yield f"{tag} multi key", database, _join(method, R, S, ra_sa, rb_sb)
        yield f"{tag} residual", database, _join(method, R, S, ra_sa, rb_lt_sb)
        yield f"{tag} literal residual", database, _join(
            method, R, S, ra_sa, local_predicate("S", "b", Op.GE, 5)
        )
        yield f"{tag} filtered outer", database, _join(method, filtered_r, S, ra_sa)
        yield f"{tag} empty outer", database, _join(method, empty_r, S, ra_sa)
        yield f"{tag} empty inner", database, _join(method, R, empty_s, ra_sa)
        yield f"{tag} both empty", database, _join(method, empty_r, empty_s, ra_sa)
        yield f"{tag} alias self-join", database, _join(
            method,
            R,
            _scan(database, "R2", "R"),
            join_predicate("R", "b", "R2", "a"),
        )
        yield f"{tag} join subtree inner", database, _join(
            method,
            T,
            _join(JoinMethod.SORT_MERGE, R, S, ra_sa),
            join_predicate("T", "a", "R", "b"),
        )
    yield "nested-loops key-less", database, _join(JoinMethod.NESTED_LOOPS, T, S)
    yield "nested-loops non-equi only", database, _join(
        JoinMethod.NESTED_LOOPS, T, S, join_predicate("T", "a", "S", "a", Op.LT)
    )
    yield "nested-loops key-less empty", database, _join(
        JoinMethod.NESTED_LOOPS, T, empty_s
    )


def _small_buffer_run() -> GoldenRun:
    """Nested loops whose inner exceeds the buffer, charging re-read pages."""
    database = build_database(
        [TableSpec.uniform("L", 120, {"k": 30}), TableSpec.uniform("I", 400, {"k": 40})],
        seed=6,
    )
    plan = _join(
        JoinMethod.NESTED_LOOPS,
        _scan(database, "L", "L"),
        _scan(database, "I", "I"),
        join_predicate("L", "k", "I", "k"),
    )
    return "nested-loops small buffer", database, plan, {"page_size": 64, "buffer_pages": 4}


def golden_runs() -> Iterator[GoldenRun]:
    """Every golden plan with its executor options, in a fixed order."""
    for runs in (_answer_runs(), _shape_runs(), _handmade_runs()):
        for name, database, plan in runs:
            yield name, database, plan, {}
    yield _small_buffer_run()


def render_row_engine() -> str:
    """Every golden plan's rendering, in a fixed order."""
    return "".join(
        render_run(name, database, plan, **options)
        for name, database, plan, options in golden_runs()
    )


def test_row_engine_matches_golden_file():
    assert render_row_engine() == GOLDEN.read_text()


def test_count_charges_what_materializing_charges():
    """``Executor.count`` on every golden plan: the count of ``execute``'s
    rows, every operator's counters, and the same deadline tick total."""
    checked = 0
    for name, database, plan, options in golden_runs():
        executed_deadline, counted_deadline = CountingDeadline(), CountingDeadline()
        executed = Executor(database, deadline=executed_deadline, **options).execute(plan)
        counted = Executor(database, deadline=counted_deadline, **options).count(plan)
        assert counted.count == len(executed.rows), name
        assert counted.rows == [], name
        assert counters(counted) == counters(executed), name
        assert counted_deadline.units == executed_deadline.units, name
        checked += 1
    assert checked == GOLDEN.read_text().count("\n== ") + 1


if __name__ == "__main__":
    GOLDEN.write_text(render_row_engine())
