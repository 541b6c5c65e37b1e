"""Command-line interface: estimate, optimize, closure, demo, lint and check.

The CLI exposes the library's core loop without writing Python:

* ``repro-els estimate`` — incremental size estimates for a query against
  a statistics JSON file, under any algorithm;
* ``repro-els optimize`` — the chosen plan (EXPLAIN-style) and its
  per-join estimates;
* ``repro-els closure`` — the query after predicate transitive closure,
  with each implied predicate and the rule that derived it;
* ``repro-els demo`` — the paper's Section 8 experiment end to end;
* ``repro-els lint`` — the repo's own static-analysis rules (``ELS1xx``)
  over Python sources;
* ``repro-els check`` — semantic invariant diagnostics (``ELS2xx``) for a
  query against a statistics file, before any estimation runs.

Exit codes: 0 on success/clean, 1 on an error or diagnostics found, 2 on
usage errors (bad flags, bad lint paths).

Statistics files use the shape of
:func:`repro.storage.loader.load_stats_json`::

    {"R1": {"rows": 100, "columns": {"x": 10}},
     "R2": {"rows": 1000, "columns": {"y": 100}}}

Examples::

    repro-els estimate --stats stats.json \\
        --query "SELECT * FROM R1, R2 WHERE R1.x = R2.y" --algorithm els
    repro-els demo --scale 0.2
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.report import AsciiTable
from .core.closure import close_query
from .core.config import ELS, SM, SRS, SSS, EstimatorConfig
from .core.estimator import JoinSizeEstimator
from .errors import LintError, ReproError
from .execution.executor import Executor
from .lint.cli import run_check, run_lint
from .optimizer.optimizer import Optimizer
from .sql.parser import parse_query
from .storage.loader import load_stats_json

__all__ = ["main", "build_parser"]

ALGORITHMS = {"els": ELS, "sm": SM, "srs": SRS, "sss": SSS}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-els",
        description=(
            "Join result size estimation per Swami & Schiefer (EDBT 1994): "
            "Algorithm ELS and its baselines."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    estimate = commands.add_parser(
        "estimate", help="incremental size estimates for a join order"
    )
    _add_query_args(estimate)
    estimate.add_argument(
        "--order",
        help="comma-separated join order (default: FROM-clause order)",
    )

    optimize = commands.add_parser("optimize", help="choose and explain a plan")
    _add_query_args(optimize)
    optimize.add_argument(
        "--enumerator",
        choices=("dp", "dp-bushy", "greedy", "random", "annealing"),
        default="dp",
        help="join-order enumerator (default dp)",
    )
    optimize.add_argument(
        "--seed", type=int, default=0, help="seed for the randomized enumerators"
    )

    closure = commands.add_parser(
        "closure", help="show the query after predicate transitive closure"
    )
    closure.add_argument("--stats", required=True, help="statistics JSON file")
    closure.add_argument("--query", required=True, help="SQL text")

    demo = commands.add_parser("demo", help="run the paper's Section 8 experiment")
    demo.add_argument(
        "--scale", type=float, default=0.2, help="table-size scale (1.0 = paper)"
    )
    demo.add_argument(
        "--engine",
        choices=("row", "columnar", "parallel"),
        default="columnar",
        help="execution engine for the ground-truth runs (default columnar)",
    )

    lint = commands.add_parser(
        "lint",
        help="run the ELS static-analysis rules "
        "(ELS1xx/ELS3xx/ELS4xx/ELS5xx/ELS6xx) over sources",
    )
    lint.add_argument("paths", nargs="+", help="files or directories to lint")
    lint.add_argument(
        "--dataflow",
        action="store_true",
        default=False,
        help="also run the interprocedural ELS3xx quantity-dimension pass",
    )
    lint.add_argument(
        "--no-dataflow",
        action="store_false",
        dest="dataflow",
        help="disable the ELS3xx pass (the default)",
    )
    lint.add_argument(
        "--effects",
        action="store_true",
        default=False,
        help="also run the interprocedural ELS4xx effect/determinism pass",
    )
    lint.add_argument(
        "--no-effects",
        action="store_false",
        dest="effects",
        help="disable the ELS4xx pass (the default)",
    )
    lint.add_argument(
        "--concurrency",
        action="store_true",
        default=False,
        help="also run the interprocedural ELS5xx concurrency-safety pass",
    )
    lint.add_argument(
        "--no-concurrency",
        action="store_false",
        dest="concurrency",
        help="disable the ELS5xx pass (the default)",
    )
    lint.add_argument(
        "--perf",
        action="store_true",
        default=False,
        help="also run the interprocedural ELS6xx hot-path performance pass",
    )
    lint.add_argument(
        "--no-perf",
        action="store_false",
        dest="perf",
        help="disable the ELS6xx pass (the default)",
    )
    lint.add_argument(
        "--contracts",
        action="store_true",
        default=False,
        help=(
            "also run the interprocedural ELS7xx contract-and-architecture "
            "pass"
        ),
    )
    lint.add_argument(
        "--no-contracts",
        action="store_false",
        dest="contracts",
        help="disable the ELS7xx pass (the default)",
    )
    lint.add_argument(
        "--no-cache",
        action="store_false",
        dest="cache",
        default=True,
        help="bypass the incremental lint cache and re-analyze everything",
    )
    lint.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory for the incremental lint cache (default .repro-lint-cache)",
    )
    lint.add_argument(
        "--statistics",
        action="store_true",
        default=False,
        help="print per-rule hit counts and cache counters to stderr",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint files with N parallel worker processes (0 = one per CPU)",
    )
    _add_diagnostic_args(lint)

    check = commands.add_parser(
        "check", help="semantic invariant diagnostics (ELS2xx) for a query"
    )
    check.add_argument("--stats", required=True, help="statistics JSON file")
    check.add_argument("--query", required=True, help="SQL text")
    check.add_argument(
        "--no-ptc",
        action="store_true",
        help="analyze the query as written instead of after transitive closure "
        "(flags missing derivable predicates as ELS201)",
    )
    _add_diagnostic_args(check)
    return parser


def _add_diagnostic_args(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--select", help="comma-separated code prefixes to keep")
    subparser.add_argument("--ignore", help="comma-separated code prefixes to drop")
    subparser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format",
    )


def _add_query_args(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--stats", required=True, help="statistics JSON file")
    subparser.add_argument("--query", required=True, help="SQL text")
    subparser.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="els",
        help="estimation algorithm (default els)",
    )
    subparser.add_argument(
        "--no-ptc",
        action="store_true",
        help="disable predicate transitive closure",
    )
    subparser.add_argument(
        "--frequency-stats",
        action="store_true",
        help="use MCV/histogram join selectivities when the catalog has them",
    )


def _load(args) -> tuple:
    catalog = load_stats_json(args.stats)
    query = parse_query(args.query, schemas=catalog.schemas_by_column())
    return catalog, query


def _config(args) -> EstimatorConfig:
    config: EstimatorConfig = ALGORITHMS[args.algorithm]
    if getattr(args, "frequency_stats", False):
        config = config.but(use_frequency_stats=True)
    return config


def _command_estimate(args) -> int:
    catalog, query = _load(args)
    estimator = JoinSizeEstimator(query, catalog, _config(args), not args.no_ptc)
    order = args.order.split(",") if args.order else list(query.tables)
    result = estimator.estimate_order(order)
    table = AsciiTable(["Step", "Table", "Estimated rows"])
    for index, step in enumerate(result.steps):
        table.add_row(index, step.table, step.rows)
    print(table.render())
    print(f"final estimate: {result.rows:g}")
    return 0


def _command_optimize(args) -> int:
    catalog, query = _load(args)
    optimizer = Optimizer(catalog, enumerator=args.enumerator, seed=args.seed)
    result = optimizer.optimize(query, _config(args), apply_closure=not args.no_ptc)
    print(result.explain())
    print()
    print(f"join order: {' >< '.join(result.join_order)}")
    sizes = ", ".join(f"{x:g}" for x in result.intermediate_sizes)
    print(f"estimated sizes: ({sizes})")
    print(f"estimated cost: {result.estimated_cost:g}")
    return 0


def _command_closure(args) -> int:
    catalog = load_stats_json(args.stats)
    query = parse_query(args.query, schemas=catalog.schemas_by_column())
    closed, result = close_query(query)
    print(f"given:  {query}")
    print(f"closed: {closed}")
    if result.implied:
        print("implied predicates:")
        for implied in result.implied:
            print(f"  {implied}")
    else:
        print("no implied predicates")
    return 0


def _command_demo(args) -> int:
    from .workloads.paper import load_smbg_database, smbg_query

    database = load_smbg_database(scale=args.scale, seed=42)
    query = smbg_query(threshold=max(2, int(100 * args.scale)))
    optimizer = Optimizer(database.catalog)
    executor = Executor(database, engine=args.engine)
    table = AsciiTable(
        ["Algorithm", "Join order", "Estimates", "True", "Time (s)"],
        title=f"Section 8 experiment at scale {args.scale}",
    )
    for name, config, closure in [
        ("SM (no PTC)", SM, False),
        ("SM + PTC", SM, True),
        ("SSS + PTC", SSS, True),
        ("ELS", ELS, True),
    ]:
        result = optimizer.optimize(query, config, apply_closure=closure)
        run = executor.count(result.plan)
        estimates = "(" + ", ".join(f"{x:.3g}" for x in result.intermediate_sizes) + ")"
        table.add_row(
            name,
            " >< ".join(result.join_order),
            estimates,
            run.count,
            f"{run.wall_seconds:.3f}",
        )
    print(table.render())
    return 0


def _command_lint(args) -> int:
    return run_lint(
        args.paths,
        args.select,
        args.ignore,
        args.format,
        dataflow=args.dataflow,
        effects=args.effects,
        concurrency=args.concurrency,
        jobs=args.jobs,
        statistics=args.statistics,
        perf=args.perf,
        contracts=args.contracts,
        use_cache=args.cache,
        cache_dir=args.cache_dir,
    )


def _command_check(args) -> int:
    return run_check(
        args.stats,
        args.query,
        apply_closure=not args.no_ptc,
        select=args.select,
        ignore=args.ignore,
        output_format=args.format,
    )


_COMMANDS = {
    "estimate": _command_estimate,
    "optimize": _command_optimize,
    "closure": _command_closure,
    "demo": _command_demo,
    "lint": _command_lint,
    "check": _command_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    0 = success / no diagnostics, 1 = failure or diagnostics found,
    2 = usage error (argparse also exits 2 on malformed flags).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except LintError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
