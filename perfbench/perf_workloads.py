"""The three benchmark workloads: ``plan``, ``answer`` and ``sweep``.

Each workload is a closed loop with one caller.  It is built from the
workload seed alone, and the library only ever sees the generated inputs
(SQL text, table specs, databases).  A workload object offers:

* ``setup()`` -- generate, load and ANALYZE its data, then run one warm
  pass of every op so lazy caches fill before timing.  ``steps()`` does
  the same and yields after each step (one database or one warm op), so
  the runner can read the host's speed between steps;
* ``verify()`` -- untimed reference results the per-op checks compare
  against, plus the quality bases (``qerror_gmean``, ``plan_regret``)
  and any ``failures`` found on the way;
* ``cycle()`` -- the ops of one pass over the workload's fixed pool; the
  timed loop repeats whole passes, so every op weighs the same in every
  run and each op's median time over the passes can be taken;
* ``run(op)`` -- the timed call, exactly as a user makes it;
* ``check(op, outcome)`` -- ``None`` when the output is right, else the
  reason it is wrong;
* ``finish()`` -- untimed checks after the loop (``sweep`` recounts its
  pool on the row engine here and checks every outcome).

Why these workloads: ``plan`` puts nearly all work in SQL, the estimator
core and the optimizer and none in execution; ``answer`` is the paper's
Section 8 "QEP elapsed time", where execution dominates and the database
is fixed, so storage caches are only read; ``sweep`` is the accuracy
experiment loop, which writes storage, catalog and ground-truth cache
entries on every op and plans nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import ELS, Executor, Optimizer, parse_query
from repro.analysis.harness import PAPER_ALGORITHMS, evaluate_workloads
from repro.analysis.metrics import q_error
from repro.analysis.truth import build_reference_plan
from repro.analysis.truthcache import DEFAULT_TRUTH_CACHE
from repro.catalog.schema import TableSchema
from repro.optimizer.cost import CostModel
from repro.optimizer.plans import PlanNode, ScanPlan, leaf_order
from repro.sql.predicates import join_predicate
from repro.sql.query import Projection, Query
from repro.storage.database import Database
from repro.workloads import (
    TPCH_SCHEMAS,
    ColumnSpec,
    Distribution,
    GeneratedWorkload,
    TableSpec,
    build_database,
    chain_workload,
    clique_workload,
    cycle_workload,
    generate_columns,
    q3_customer_orders,
    q5_regional,
    q9_parts_suppliers,
    q_full_join,
    smbg_query,
    smbg_specs,
    snowflake_workload,
    star_workload,
    tpch_lite_specs,
)

__all__ = [
    "AnswerBench",
    "AnswerOp",
    "MIN_OPS",
    "PlanBench",
    "PlanOp",
    "SweepBench",
    "SweepOp",
    "WORKLOADS",
    "check_count",
    "check_plan",
    "check_records",
    "load",
]

#: Fewest ops a run times, whatever its length in seconds.
MIN_OPS = 100

#: Relative tolerance between the ELS estimate and Equation 3.
CLOSED_FORM_RTOL = 1e-9

SMBG_SCHEMAS = {"S": ["s"], "M": ["m"], "B": ["b"], "G": ["g"]}

#: TPC-H-lite scale at which ``lineitem`` (150k rows) exceeds the parallel
#: engine's 131,072-row fan-out threshold.
TPCH_SCALE = 0.25


def _mix(seed: int, *parts: int) -> int:
    """A stable 63-bit seed derived from the workload seed and indices."""
    value = seed & 0xFFFFFFFFFFFF
    for part in parts:
        value = (value * 1_000_003 + part + 1) % (1 << 63)
    return value


def load(specs: Sequence[TableSpec], seed: int, tracer=None) -> Database:
    """Generate, load and ANALYZE ``specs`` (same data as ``build_database``).

    Untraced, this is :func:`repro.workloads.build_database`.  With a
    tracer it issues the same public calls one by one inside spans, so
    generation, loading and ANALYZE are timed as separate layers.
    """
    if tracer is None:
        return build_database(specs, seed=seed)
    rng = np.random.default_rng(seed)
    database = Database()
    for spec in specs:
        with tracer.span("workloads.generate"):
            columns = generate_columns(spec, rng)
        with tracer.span("storage.load"):
            database.load_columns(TableSchema.of(spec.name, *spec.columns), columns)
    with tracer.span("catalog.analyze"):
        database.analyze()
    tracer.count("catalog.rows_analyzed", sum(spec.rows for spec in specs))
    return database


def _executed_work(metrics) -> float:
    """Executed plan work in the cost model's currency (exact counters).

    Selinger's ``I/O + W * RSI-calls`` applied to what the executor
    actually did: simulated pages read plus ``cpu_weight`` per tuple
    comparison and per tuple produced.
    """
    weight = CostModel().cpu_weight
    return metrics.total_pages_read + weight * (
        metrics.total_comparisons + metrics.total_rows_out
    )


def _gmean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class _Bench:
    """Shared by the three workloads: ``setup()`` runs every set-up step."""

    def setup(self, tracer=None) -> None:
        for _ in self.steps(tracer):
            pass


# ---------------------------------------------------------------------------
# plan: SQL -> parse -> optimize under ELS (DP, no execution)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanOp:
    label: str
    sql: str
    schemas: Dict[str, List[str]]
    database: Database


#: Join-graph shapes of the plan pool, each at 5, 7 and 9 relations.
PLAN_SHAPES = ("chain", "star", "snowflake", "cycle", "clique")
PLAN_SIZES = (5, 7, 9)
PLAN_REPLICATES = 2
_SNOWFLAKE_SHAPE = {5: (2, 1), 7: (2, 2), 9: (4, 1)}


def _plan_workload(shape: str, size: int, rng: random.Random) -> GeneratedWorkload:
    """One small-table join graph of ``size`` relations."""
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


def _schemas(specs: Sequence[TableSpec]) -> Dict[str, List[str]]:
    return {spec.name: list(spec.columns) for spec in specs}


class PlanBench(_Bench):
    """Optimizer-only loop over a stratified pool of join graphs.

    The pool holds the same shapes and sizes for every seed; the seed
    draws table sizes, column cardinalities and local predicates.  DP
    time grows about fourfold per added relation, so the 9-relation
    graphs form the p90 tail and the 7-relation graphs the median.
    """

    name = "plan"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: List[PlanOp] = []

    def steps(self, tracer=None) -> Iterator[None]:
        ops = []
        index = 0
        for shape in PLAN_SHAPES:
            for size in PLAN_SIZES:
                for replicate in range(PLAN_REPLICATES):
                    rng = random.Random(_mix(self.seed, index))
                    workload = _plan_workload(shape, size, rng)
                    database = load(workload.specs, _mix(self.seed, index, 1), tracer)
                    label = f"{shape}{size}.{replicate}"
                    ops.append(
                        PlanOp(
                            label,
                            str(workload.query),
                            _schemas(workload.specs),
                            database,
                        )
                    )
                    index += 1
                    yield
        self.ops = ops
        for op in ops:
            self.run(op)
            yield

    def verify(self) -> Dict[str, object]:
        return {"qerror_gmean": 1.0, "plan_regret": 1.0, "pool": len(self.ops)}

    def cycle(self) -> List[PlanOp]:
        return self.ops

    def run(self, op: PlanOp):
        query = parse_query(op.sql, schemas=op.schemas)
        return Optimizer(op.database.catalog).optimize(query, ELS)

    def check(self, op: PlanOp, result) -> Optional[str]:
        return check_plan(result.plan, result.estimator, result.estimate.rows)

    def finish(self) -> Dict[str, object]:
        return {"failures": []}


def check_plan(plan: PlanNode, estimator, estimate: float) -> Optional[str]:
    """The plan joins every relation once and ELS matches Equation 3."""
    order = leaf_order(plan)
    if sorted(order) != sorted(estimator.query.tables):
        return f"plan order {order} does not join every relation once"
    closed = estimator.closed_form()
    if abs(estimate - closed) > CLOSED_FORM_RTOL * max(abs(estimate), abs(closed)):
        return f"ELS estimate {estimate!r} != closed form {closed!r}"
    return None


# ---------------------------------------------------------------------------
# answer: SQL -> parse -> optimize (ELS) -> execute COUNT(*)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnswerOp:
    label: str
    sql: str
    schemas: Dict[str, List[str]]
    database: Database


def _answer_queries() -> List[Tuple[str, str, Query]]:
    """(label, database key, query) of the paper's Section 8 query and
    the four TPC-H-lite shapes."""
    return [
        ("smbg", "smbg", smbg_query(100)),
        ("q3", "tpch", q3_customer_orders()),
        ("q5", "tpch", q5_regional()),
        ("q9", "tpch", q9_parts_suppliers()),
        ("q_full_join", "tpch", q_full_join()),
    ]


class AnswerBench(_Bench):
    """The paper's QEP elapsed time on fixed, full-scale databases."""

    name = "answer"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.databases: Dict[str, Database] = {}
        self.ops: List[AnswerOp] = []
        self.truth: Dict[str, int] = {}

    def steps(self, tracer=None) -> Iterator[None]:
        self.databases = {}
        self.databases["smbg"] = load(smbg_specs(1.0), _mix(self.seed, 0), tracer)
        yield
        self.databases["tpch"] = load(
            tpch_lite_specs(TPCH_SCALE), _mix(self.seed, 1), tracer
        )
        yield
        schemas = {"smbg": SMBG_SCHEMAS, "tpch": TPCH_SCHEMAS}
        self.ops = [
            AnswerOp(label, str(query), schemas[key], self.databases[key])
            for label, key, query in _answer_queries()
        ]
        for op in self.ops:
            self.run(op)
            yield

    def verify(self) -> Dict[str, object]:
        """Truth on two engines, then every paper algorithm's plan executed.

        The row engine's count is the truth; a disagreeing engine or plan
        is reported as a failure.  ``plan_regret`` per query is the ELS plan's executed work over the
        least executed work among the four ``PAPER_ALGORITHMS`` plans.
        """
        per_query, problems = [], []
        qerrors, regrets = [], []
        for op in self.ops:
            query = parse_query(op.sql, schemas=op.schemas)
            reference = build_reference_plan(query, op.database)
            counts = {
                engine: Executor(op.database, engine=engine).count(reference).count
                for engine in ("row", "columnar")
            }
            if counts["row"] != counts["columnar"]:
                problems.append(f"{op.label}: engines disagree {counts}")
            truth = counts["row"]
            self.truth[op.label] = truth
            algorithms = {}
            for spec in PAPER_ALGORITHMS:
                result = Optimizer(op.database.catalog).optimize(
                    query, spec.config, spec.apply_closure
                )
                executed = Executor(op.database).count(result.plan)
                problem = check_count(
                    f"{op.label} under {spec.name}", executed.count, truth
                )
                if problem is not None:
                    problems.append(problem)
                algorithms[spec.name] = {
                    "order": list(result.join_order),
                    "estimate": result.estimate.rows,
                    "work": _executed_work(executed.metrics),
                }
            els = algorithms["ELS"]
            best = min(entry["work"] for entry in algorithms.values())
            regret = els["work"] / best
            qerror = q_error(els["estimate"], truth)
            qerrors.append(qerror)
            regrets.append(regret)
            per_query.append(
                {
                    "query": op.label,
                    "truth": truth,
                    "els_estimate": els["estimate"],
                    "qerror": qerror,
                    "plan_regret": regret,
                    "largest_scan_rows": max(
                        op.database.table(base).row_count
                        for base in _scanned_tables(reference)
                    ),
                    "algorithms": algorithms,
                }
            )
        return {
            "qerror_gmean": _gmean(qerrors),
            "plan_regret": _gmean(regrets),
            "largest_scan_rows": max(q["largest_scan_rows"] for q in per_query),
            "queries": per_query,
            "failures": problems,
        }

    def cycle(self) -> List[AnswerOp]:
        return self.ops

    def run(self, op: AnswerOp):
        query = parse_query(op.sql, schemas=op.schemas)
        result = Optimizer(op.database.catalog).optimize(query, ELS)
        return Executor(op.database).count(result.plan)

    def check(self, op: AnswerOp, executed) -> Optional[str]:
        return check_count(op.label, executed.count, self.truth[op.label])

    def finish(self) -> Dict[str, object]:
        return {"failures": []}


def check_count(label: str, count: int, truth: int) -> Optional[str]:
    if count != truth:
        return f"{label}: counted {count}, truth {truth}"
    return None


def _scanned_tables(plan: PlanNode) -> List[str]:
    if isinstance(plan, ScanPlan):
        return [plan.base_table]
    return _scanned_tables(plan.left) + _scanned_tables(plan.right)


# ---------------------------------------------------------------------------
# sweep: evaluate_workloads([w], seed=s) on a fresh workload per op
# ---------------------------------------------------------------------------


def _skewed_chain(tables: int, rows: int, distinct: int, skew: float) -> GeneratedWorkload:
    """A Zipf chain: skewed keys make COUNT(*) far exceed every input."""
    specs = tuple(
        TableSpec(
            f"T{i}",
            rows,
            {"c": ColumnSpec(distinct, Distribution.ZIPF, skew)},
        )
        for i in range(1, tables + 1)
    )
    predicates = [
        join_predicate(f"T{i - 1}", "c", f"T{i}", "c") for i in range(2, tables + 1)
    ]
    query = Query.build(
        [spec.name for spec in specs], predicates, Projection(count_star=True)
    )
    return GeneratedWorkload(specs, query)


def _chain_result(workload: GeneratedWorkload, seed: int) -> float:
    """COUNT(*) of a chain or cycle whose tables all join on column ``c``.

    Computed from the value counts of the data ``build_database(specs,
    seed)`` generates (same generator, same order): the sum over values
    of the product of their per-table counts.
    """
    rng = np.random.default_rng(seed)
    counts = [np.bincount(generate_columns(spec, rng)["c"]) for spec in workload.specs]
    size = min(len(count) for count in counts)
    product = np.ones(size)
    for count in counts:
        product *= count[:size]
    return float(product.sum())


#: The sweep's strata, in pool order: (name, workload maker, band).  A
#: stratum with a band draws workloads and data seeds until the exact
#: result lies in the band, because an op's ground-truth time and memory
#: grow with its result rows.  So each stratum's op time, the run's
#: percentiles and ``peak_rss_mb`` (set by the Zipf 3-chains, which
#: materialise about 2 million rows) vary little from seed to seed.
SWEEP_STRATA = (
    ("chain3", lambda rng: chain_workload(3, rng, 1000, 3000), (30_000, 60_000)),
    ("chain4", lambda rng: chain_workload(4, rng, 1000, 3000), (30_000, 60_000)),
    ("chain5", lambda rng: chain_workload(5, rng, 1000, 3000), (30_000, 60_000)),
    ("cycle4", lambda rng: cycle_workload(4, rng, 1000, 3000), (30_000, 60_000)),
    ("cycle6", lambda rng: cycle_workload(6, rng, 500, 1500), (30_000, 60_000)),
    ("star3", lambda rng: star_workload(3, rng, (4000, 6000), (200, 1000)), None),
    ("star5", lambda rng: star_workload(5, rng, (4000, 6000), (200, 1000)), None),
    ("snowflake5", lambda rng: snowflake_workload(2, 1, rng, (4000, 6000)), None),
    ("zipf3a", lambda rng: _skewed_chain(3, 600, 50, 1.0), (2_000_000, 2_100_000)),
    ("zipf3b", lambda rng: _skewed_chain(3, 600, 50, 1.0), (2_000_000, 2_100_000)),
    ("zipf4", lambda rng: _skewed_chain(4, 150, 50, 1.0), (250_000, 270_000)),
)

#: Draws a banded stratum may take before the benchmark gives up.
BAND_DRAWS = 1000


def _draw(stratum, rng: random.Random) -> Tuple[GeneratedWorkload, int]:
    """A workload of ``stratum`` and its data seed, within its band."""
    name, make, band = stratum
    for _ in range(BAND_DRAWS):
        workload = make(rng)
        seed = rng.randrange(1 << 31)
        if band is None or band[0] <= _chain_result(workload, seed) <= band[1]:
            return workload, seed
    raise RuntimeError(f"no {name} workload with a result in {band}")


#: Pool ops per stratum.  The two Zipf 3-chain strata, the slowest, then
#: make up a sixth of the pool, so p90 falls inside their cluster rather
#: than at its edge.  They share one shape and one band, so that cluster
#: is one kind of op.
SWEEP_PER_STRATUM = 4


@dataclass(frozen=True)
class SweepOp:
    label: str
    workload: GeneratedWorkload
    seed: int


class SweepBench(_Bench):
    """The accuracy-experiment loop: a fresh database on every op.

    Every op generates, loads, ANALYZEs and fingerprints a new database,
    runs the columnar ground truth and builds the four paper estimators.
    The pool holds four generated workloads per stratum and is repeated
    pass after pass; each op first empties the default truth cache, so,
    as in a stream of distinct workloads, no op is answered by a cached
    ground truth.  The Zipf strata keep the known COUNT(*)
    materialisation cost in view: their result rows dominate
    ``peak_rss_mb``.  The row-engine recounts run after the loop, so
    their own materialisation stays out of ``peak_rss_mb``.
    """

    name = "sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: List[SweepOp] = []
        self.warm: Dict[str, list] = {}
        self.outcomes: List[Tuple[str, list]] = []

    def steps(self, tracer=None) -> Iterator[None]:
        ops = []
        for index in range(SWEEP_PER_STRATUM * len(SWEEP_STRATA)):
            stratum = SWEEP_STRATA[index % len(SWEEP_STRATA)]
            workload, seed = _draw(stratum, random.Random(_mix(self.seed, index)))
            label = f"{stratum[0]}.{index // len(SWEEP_STRATA)}"
            ops.append(SweepOp(label, workload, seed))
        self.ops = ops
        self.warm = {}
        for op in ops:
            self.warm[op.label] = self.run(op)
            yield

    def verify(self) -> Dict[str, object]:
        """ELS q-errors of the set-up pass, with each estimate and truth."""
        per_op = []
        for op in self.ops:
            els = [r for r in self.warm[op.label] if r.algorithm == "ELS"][0]
            per_op.append([op.label, els.estimate, els.actual, els.q_error])
        return {
            "qerror_gmean": _gmean([entry[3] for entry in per_op]),
            "plan_regret": 1.0,
            "ops": per_op,
        }

    def cycle(self) -> List[SweepOp]:
        return self.ops

    def run(self, op: SweepOp):
        DEFAULT_TRUTH_CACHE.clear()
        return evaluate_workloads([op.workload], seed=op.seed)[0]

    def check(self, op: SweepOp, records) -> Optional[str]:
        self.outcomes.append((op.label, records))
        return None

    def finish(self) -> Dict[str, object]:
        """Recount every pool op on the row engine; check every outcome."""
        recount = {}
        for op in self.ops:
            database = build_database(op.workload.specs, seed=op.seed, analyze=False)
            plan = build_reference_plan(op.workload.query, database)
            recount[op.label] = Executor(database, engine="row").count(plan).count
        outcomes = [(label, self.warm[label]) for label in self.warm] + self.outcomes
        failures = [
            problem
            for label, records in outcomes
            if (problem := check_records(label, records, recount[label])) is not None
        ]
        return {
            "failures": failures,
            "degraded": sum(r.degraded for _, records in outcomes for r in records),
            "largest_true_count": max(recount.values()),
        }


def check_records(label: str, records, recount: int) -> Optional[str]:
    """Every record is exact against the recount and none is degraded."""
    for record in records:
        if record.degraded:
            return f"{label}: {record.algorithm} record is degraded"
        if record.actual != recount:
            return f"{label}: actual {record.actual}, row-engine recount {recount}"
    return None


WORKLOADS = {bench.name: bench for bench in (PlanBench, AnswerBench, SweepBench)}
