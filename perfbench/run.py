"""End-to-end benchmark of the ELS reproduction, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload plan|answer|sweep --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` it sets up the workload several times (``setup_s`` is
the median), computes the reference results, then runs whole passes of
the workload's ops in a closed loop with one caller for ``--seconds``
seconds and prints the end-to-end metrics.  With ``--trace 1`` it runs
every op untraced and then traced on the same inputs, and prints the
per-layer metrics plus the tracing overhead.  Either way a JSON report
with the run metadata lands in ``perfbench/out/`` (traced runs also write
their spans there), and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The library is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The probe's duration on the reference host: times are reported at the
#: speed at which one probe takes this long.
PROBE_S = 0.001
#: Probes per host-speed reading; the reading is their median.
PROBES = 3
#: Times are scaled by (reference probe time / probe time) to this power.
#: Within a run, op times move with the probe at an elasticity of about
#: 0.7-0.9; between runs half an hour apart it fell to 0.2-0.5, when the
#: probe slowed by a third and the ops by a tenth.  Full scaling then
#: over-corrects; the square root removes most of the swing within a run
#: and keeps the error across such shifts near a tenth.
SCALE_POWER = 0.5
#: The end-to-end metric(s) each per-layer metric should move, by workload.
LAYER_TARGETS = {
    "sql.parse_ms": ["plan/p50_ms"],
    "core.closure_ms": ["plan/p50_ms", "sweep/ops_per_s"],
    "core.build_ms": ["plan/p50_ms", "sweep/ops_per_s"],
    "core.implied_predicates": ["plan/p50_ms", "sweep/ops_per_s"],
    "core.estimate_calls": ["plan/p50_ms", "plan/p90_ms", "plan/ops_per_s"],
    "core.estimate_ms": ["plan/p50_ms", "plan/p90_ms", "plan/ops_per_s"],
    "optimizer.enumerate_ms": ["plan/p50_ms", "plan/p90_ms", "plan/ops_per_s"],
    "optimizer.self_ms": ["plan/p50_ms", "plan/p90_ms", "plan/ops_per_s"],
    "execution.exec_ms": ["answer/p50_ms", "answer/p90_ms", "answer/peak_rss_mb"],
    "execution.rows_out": ["answer/p50_ms", "answer/plan_regret"],
    "execution.comparisons": ["answer/p50_ms", "answer/plan_regret"],
    "execution.pages_read": ["answer/p50_ms", "answer/plan_regret"],
    "execution.rows_per_s": ["answer/p50_ms", "answer/p90_ms"],
    "workloads.generate_ms": ["sweep/ops_per_s", "*/setup_s"],
    "storage.load_ms": ["sweep/ops_per_s", "*/setup_s"],
    "catalog.analyze_ms": ["sweep/ops_per_s", "*/setup_s"],
    "catalog.rows_analyzed": ["sweep/ops_per_s", "*/setup_s"],
    "storage.fingerprint_ms": ["sweep/p50_ms"],
    "analysis.truth_ms": ["sweep/p50_ms", "sweep/peak_rss_mb"],
    "analysis.harness_self_ms": ["sweep/p50_ms"],
    "analysis.truthcache_lookups": ["sweep/p50_ms"],
    "analysis.truthcache_hits": ["sweep/p50_ms"],
    "resilience.degraded": ["sweep/ok_ratio"],
    "execution.engine_ms.<engine>": ["answer/p50_ms", "answer/p90_ms"],
    "trace.overhead_ms": [],
}

#: Span names whose self time is a per-layer metric (``<name>_ms``).
SPAN_LAYERS = (
    "sql.parse",
    "core.closure",
    "core.build",
    "core.estimate",
    "optimizer.enumerate",
    "execution.exec",
    "workloads.generate",
    "storage.load",
    "catalog.analyze",
    "storage.fingerprint",
    "analysis.truth",
)
COUNTERS = (
    "core.implied_predicates",
    "core.estimate_calls",
    "execution.rows_out",
    "execution.comparisons",
    "execution.pages_read",
    "catalog.rows_analyzed",
    "analysis.truthcache_lookups",
    "analysis.truthcache_hits",
)
#: Layers that plan and answer run only in set-up: reported per set-up
#: when the timed ops never call them.
SETUP_LAYERS = ("workloads.generate", "storage.load", "catalog.analyze")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_seconds() -> float:
    """Time one fixed task: the host-speed probe.

    On a shared machine the host's speed swings by a quarter within
    seconds, slowing the op and the probes next to it alike.  The probe
    mixes what the workloads do: it runs Python bytecode, allocates fresh
    lists and streams a fresh NumPy array, so it slows with both CPU and
    memory contention.  Garbage collection is off while it runs, so
    garbage an op leaves behind does not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        tripled = [value * 3 for value in list(range(20_000))]
        (np.arange(80_000) * 2).sum()
        del tripled
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def host_speed() -> float:
    """Median of ``PROBES`` probes: the host's current seconds per probe."""
    return statistics.median(probe_seconds() for _ in range(PROBES))


def scale(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` scaled toward the reference speed by the readings around it."""
    return elapsed * (PROBE_S / ((before + after) / 2)) ** SCALE_POWER


def timed_setups(bench_cls, seed):
    """Set the workload up ``SETUPS`` times; keep the last, time all.

    Returns the bench, each set-up's raw seconds and each one scaled
    toward the reference speed step by step: every set-up step (one database or
    one warm op) by the probes taken just before and after it.
    """
    raw, scaled = [], []
    for _ in range(SETUPS):
        bench = None  # release the previous set-up's data first
        bench = bench_cls(seed)
        total = total_scaled = 0.0
        speed = host_speed()
        started = time.perf_counter()
        for _ in bench.steps():
            elapsed = time.perf_counter() - started
            before, speed = speed, host_speed()
            total += elapsed
            total_scaled += scale(elapsed, before, speed)
            started = time.perf_counter()
        raw.append(total)
        scaled.append(total_scaled)
    return bench, raw, scaled


def run_op(bench, op):
    """One timed op; returns (seconds, failure reason or None)."""
    started = time.perf_counter()
    try:
        outcome = bench.run(op)
    except Exception as exc:  # a failed op is counted, never fatal
        return time.perf_counter() - started, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    return elapsed, bench.check(op, outcome)


def percentile(values, fraction):
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_metrics(per_op):
    """p50, p90 (ms) and ops/s over the pool, from each op's median time."""
    latencies = [statistics.median(values) for values in per_op.values()]
    return {
        "p50_ms": 1000 * percentile(latencies, 0.5),
        "p90_ms": 1000 * percentile(latencies, 0.9),
        "ops_per_s": len(latencies) / sum(latencies),
    }


def end_to_end(bench_cls, seed, seconds, report):
    """Untimed set-ups and checks around a timed loop of whole passes.

    The host's speed swings within seconds, so every time is scaled
    toward the reference speed (one probe in ``PROBE_S``) by the probes
    taken right before and after it (see :func:`scale`).  An op's latency is the median of its
    scaled times over the run's passes; the percentiles and ``ops_per_s``
    are taken over those per-op latencies.  The unscaled figures, the
    probe times and every raw op time are in the report.
    """
    from perf_workloads import MIN_OPS

    bench, raw_setups, setups = timed_setups(bench_cls, seed)
    quality = bench.verify()
    failures = quality.pop("failures", [])
    raw, scaled, samples = {}, {}, []
    speed = host_speed()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(samples) < MIN_OPS:
        for op in bench.cycle():
            elapsed, problem = run_op(bench, op)
            before, speed = speed, host_speed()
            raw.setdefault(op.label, []).append(elapsed)
            scaled.setdefault(op.label, []).append(scale(elapsed, before, speed))
            samples.append((op.label, elapsed, speed))
            if problem is not None:
                failures.append(problem)
    rss = peak_rss_mb()
    finished = bench.finish()
    failures.extend(finished.pop("failures"))
    quality.update(finished)
    attempted = len(samples)
    # Set-up and post-loop checks can add failures beyond the timed ops.
    failed = min(len(failures), attempted)
    unscaled = {"setup_s": statistics.median(raw_setups), **latency_metrics(raw)}
    latency = latency_metrics(scaled)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "p50_ms": (latency["p50_ms"], "ms"),
        "p90_ms": (latency["p90_ms"], "ms"),
        "ops_per_s": (latency["ops_per_s"], "1/s"),
        "peak_rss_mb": (rss, "MiB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "qerror_gmean": (quality["qerror_gmean"], "ratio"),
        "plan_regret": (quality["plan_regret"], "ratio"),
    }
    report.update(
        {
            "setup_seconds": raw_setups,
            "ops": len(raw),
            "passes": attempted // len(raw),
            "probe_median_ms": 1000 * statistics.median(s[2] for s in samples),
            "unscaled": unscaled,
            "failures": failures[:20],
            "quality": quality,
            "samples": samples,
        }
    )
    return attempted, failed, metrics


def engine_panel(answer):
    """Median ms to count answer's reference plans, per execution engine."""
    from repro.analysis.truth import build_reference_plan
    from repro.execution import ENGINES
    from repro import Executor, parse_query

    plans = []
    for op in answer.ops:
        query = parse_query(op.sql, schemas=op.schemas)
        plans.append((op, build_reference_plan(query, op.database)))
    totals, failures = {}, []
    for engine in ENGINES:
        total = 0.0
        for op, plan in plans:
            samples = []
            for _ in range(4):
                started = time.perf_counter()
                count = Executor(op.database, engine=engine).count(plan).count
                samples.append(time.perf_counter() - started)
                if count != answer.truth[op.label]:
                    failures.append(f"{engine} counted {count} on {op.label}")
            total += statistics.median(samples[1:])
        totals[f"execution.engine_ms.{engine}"] = 1000 * total
    return totals, failures


def traced(bench_cls, seed, seconds, report):
    """Per-layer self times, counts and tracing overhead (see README.md)."""
    from perf_trace import TRACED_OPS, Tracer
    from perf_workloads import MIN_OPS, AnswerBench

    tracer = Tracer()
    bench = bench_cls(seed)
    bench.setup(tracer)
    failures = bench.verify().get("failures", [])
    traced_op = TRACED_OPS[bench.name]
    plain = []
    started = time.perf_counter()
    index = 0
    # Each op runs untraced, then traced on the same inputs, so the
    # tracing overhead and the sweep harness's own time are paired.
    while time.perf_counter() - started < seconds or len(plain) < MIN_OPS:
        for op in bench.cycle():
            elapsed, problem = run_op(bench, op)
            plain.append(elapsed)
            if problem is not None:
                failures.append(problem)
            tracer.op = f"{index}:{op.label}"
            index += 1
            with tracer.span("op"):
                try:
                    problem = traced_op(bench, op, tracer)
                except Exception as exc:  # counted, never fatal
                    problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append(problem)
    finished = bench.finish()
    failures.extend(finished.pop("failures"))
    degraded = finished.get("degraded", 0)
    op_seconds = tracer.durations("op")
    ops = len(op_seconds)
    self_s = tracer.self_seconds()

    def per_op_or_setup(name, table):
        if (name, False) in table:
            return table[(name, False)] / ops
        return table.get((name, True), 0.0)

    metrics = {}
    for name in SPAN_LAYERS:
        metrics[f"{name}_ms"] = 1000 * per_op_or_setup(name, self_s)
    enumerate_total = sum(tracer.durations("optimizer.enumerate"))
    # Enumeration's self time leaves out its core.estimate child span.
    metrics["optimizer.self_ms"] = metrics.pop("optimizer.enumerate_ms")
    metrics["optimizer.enumerate_ms"] = 1000 * enumerate_total / ops
    for name in COUNTERS:
        metrics[name] = per_op_or_setup(name, tracer.counters)
    exec_seconds = sum(tracer.durations("execution.exec"))
    rows = tracer.counters.get(("execution.rows_out", False), 0.0)
    metrics["execution.rows_per_s"] = rows / exec_seconds if exec_seconds else 0.0
    plain_mean = sum(plain) / len(plain)
    traced_mean = sum(op_seconds) / ops
    layers_mean = traced_mean - self_s.get(("op", False), 0.0) / ops
    metrics["analysis.harness_self_ms"] = (
        1000 * (plain_mean - layers_mean) if bench.name == "sweep" else 0.0
    )
    metrics["resilience.degraded"] = degraded / len(plain)
    metrics["trace.overhead_ms"] = 1000 * (traced_mean - plain_mean)

    answer = bench if isinstance(bench, AnswerBench) else None
    if answer is None:
        answer = AnswerBench(seed)
        answer.setup()
        failures.extend(answer.verify()["failures"])
    engines, engine_failures = engine_panel(answer)
    metrics.update(engines)
    failures.extend(engine_failures)

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{bench.name}-seed{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    report.update(
        {
            "traced_ops": ops,
            "untraced_ops": len(plain),
            "untraced_mean_ms": 1000 * plain_mean,
            "traced_mean_ms": 1000 * traced_mean,
            "spans": len(tracer.spans),
            "spans_file": os.path.relpath(spans_path, ROOT),
            "layer_targets": LAYER_TARGETS,
            "per_setup_layers": [
                f"{n}_ms" for n in SETUP_LAYERS if (n, False) not in self_s
            ],
            "failures": failures[:20],
        }
    )
    units = {name: "count" for name in COUNTERS}
    units["resilience.degraded"] = "count"
    units["execution.rows_per_s"] = "1/s"
    attempted = len(plain) + ops
    return attempted, min(len(failures), attempted), {
        name: (value, units.get(name, "ms")) for name, value in metrics.items()
    }


def stop_children(grace: float = 10.0) -> None:
    """Wait for every process the run started; stop any that lingers.

    The parallel engine's default fan-out forks pool workers (shut down
    without waiting) and its shared-memory transport starts the
    multiprocessing resource tracker, which would otherwise outlive this
    process.  Workers go first: they hold the tracker's pipe open too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    deadline = time.monotonic() + grace
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no library sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from perf_workloads import WORKLOADS
    from repro.analysis.bench import machine_metadata

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_metadata(),
        "setups": SETUPS,
    }
    measure = traced if args.trace else end_to_end
    attempted, failed, metrics = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, report
    )
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    kind = "trace" if args.trace else "run"
    with open(
        os.path.join(OUT_DIR, f"{kind}-{args.workload}-seed{args.seed}.json"),
        "w",
        encoding="utf-8",
    ) as handle:
        json.dump(report, handle, indent=2, default=str)
    for key in ("machine", "ops", "passes", "probe_median_ms", "unscaled", "quality"):
        if key in report:
            print(f"{key}: {json.dumps(report[key], default=str)[:2000]}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
