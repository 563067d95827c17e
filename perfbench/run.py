#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_interactive --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15

``--trace 0`` measures the end-to-end metrics with nothing wrapped, by
the wall clock.  Ops that ran while the hypervisor took CPU time from
the host are left out of the timing figures, and the phase runs longer
to make up for them (``workloads.Phase``).  ``setup_s`` is the median of
three set-ups, each in a fresh process, from the start of this script to
the end of the warm-up op.
``--trace 1`` runs the workload twice for ``--seconds / 2`` each, untraced
then traced, and reports the per-layer metrics named in ``BENCHMARK.json``
(``layers.CATALOG`` says where each applies and what it should move) plus
the tracing overhead; it also writes a Chrome trace (open it in Perfetto)
and a JSON report with per-call medians, tails and counts and the
per-layer split of each op's blocking path under ``perfbench/out/``.

Every answer is checked (``checks.py``).  The last line of standard
output is the result object; the line before it carries the host facts,
sample counts, the tail percentile and the first failures.  The exit
status is 1 when any check failed and 2 when the checkout holds no
``src/repro`` tree to measure.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

#: Set-up time counts from here, before anything of the program is imported.
STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NAMES = ("serve_interactive", "serve_burst", "synth_compile", "shard_fabric")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-int(round(q * 1000)) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def host_facts() -> Dict[str, Any]:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "system": platform.system()}


def median_rate(phase: Any, intervals: List[Tuple[int, float]],
                chunks: int = 8) -> float:
    """Correct ops per second: the median over ``chunks`` runs of
    consecutive completion intervals ``(op, seconds)`` of (correct ops
    completed in the run / the run's seconds).

    A median of rates is robust to one stalled stretch of the phase, which
    a single ops/time ratio is not.
    """
    count = min(chunks, len(intervals))
    cuts = [round(k * len(intervals) / count) for k in range(count + 1)]
    rates = []
    for lo, hi in zip(cuts, cuts[1:]):
        part = intervals[lo:hi]
        good = sum(1 for op, _seconds in part if op not in phase.bad_ops)
        rates.append(good / sum(seconds for _op, seconds in part))
    return statistics.median(rates)


def contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def setup_probe_samples(args: argparse.Namespace, count: int) -> List[float]:
    """Further set-ups, each in a fresh process so imports count again."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=120, check=True)
        samples.append(json.loads(done.stdout.decode().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(workload: Any, args: argparse.Namespace,
               setup_s: float) -> Dict[str, Any]:
    phase = workload.phase(args.seconds)
    rss = workload.peak_rss_mb()
    samples = [setup_s] + setup_probe_samples(args, SETUP_REPEATS - 1)
    ops, intervals, steal_limit = phase.clean()
    latencies = phase.latencies_ms(ops)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_s": (median_rate(phase, intervals), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (percentile(latencies, workload.tail_q), "ms"),
    }
    (_, steal0, total0), (_, steal1, total1) = phase.counters[0], phase.counters[-1]
    all_ops = phase.latencies_ms()
    detail = {"ops": len(all_ops), "timed_ops": len(ops), "steal_limit": steal_limit,
              "tail_percentile": 100 * workload.tail_q, "setup_samples_s": samples,
              "phase_wall_s": phase.wall_s, "stolen_s": phase.stolen_s,
              "host_steal_share": (steal1 - steal0) / max(total1 - total0, 1),
              "cpu_s": phase.cpu_s, "exact": workload.exact,
              "every_op": {"op_p50_ms": statistics.median(all_ops),
                           "op_tail_ms": percentile(all_ops, workload.tail_q)}}
    return _result(metrics, [phase], detail)


def traced(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    import layers
    from tracer import Tracer, blocking_path, chrome_trace, children_index

    half = args.seconds / 2
    plain = workload.phase(half)
    tracer = Tracer()
    install = {"serve_burst": layers.install_serve,
               "synth_compile": layers.install_synth,
               "shard_fabric": layers.install_shard}.get(args.workload)
    if install is not None:
        install(tracer)
    try:
        seen = workload.phase(half, tracer)
    finally:
        tracer.uninstall()
    spans = [span for span in seen.spans if span.end is not None]

    per_layer = {metric["name"]: metric for metric in contract()["per_layer"]}
    values = dict.fromkeys(per_layer, 0.0)
    if args.workload in layers.SERVE:
        values.update(layers.serve_metrics(
            spans, workload.first_keys, getattr(workload, "client_ms", {}),
            since=min(root.start for root in seen.roots)))
    elif args.workload == "synth_compile":
        values.update(layers.synth_metrics(spans, workload.first_pass_ops))
    else:
        values.update(layers.shard_metrics(spans))
    values.update(workload.exact)
    kids = children_index(spans)
    paths = [blocking_path(root, kids) for root in seen.roots]
    uncovered = [path.get(root.name, 0.0) / root.ms
                 for path, root in zip(paths, seen.roots) if root.ms > 0]
    values["trace.uncovered_pct"] = 100 * statistics.median(uncovered)
    plain_ms = statistics.median(plain.latencies_ms(plain.clean()[0]))
    seen_ms = statistics.median(seen.latencies_ms(seen.clean()[0]))
    values["trace.overhead_pct"] = 100 * (seen_ms / plain_ms - 1)
    values["process.cpu_s"] = plain.cpu_s
    values["process.cpu_util"] = plain.cpu_s / plain.wall_s
    unknown = set(values) - set(per_layer)
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    names = {"batch": "batch dispatch (executor)", "burst": "burst",
             "spec": "spec", "coordinator": "shard coordinator"}
    with open(stem + ".trace.json", "w") as handle:
        json.dump(chrome_trace(spans, names), handle)
    calls: Dict[str, List[float]] = {}
    for span in spans:
        calls.setdefault(span.name, []).append(span.ms)
    layer_names = sorted({name for path in paths for name in path})
    report = {
        "workload": args.workload, "seed": args.seed, "host": host_facts(),
        "per_call_ms": {
            name: {"n": len(ms), "p50": statistics.median(ms),
                   "p95": percentile(ms, 0.95), "total": sum(ms)}
            for name, ms in sorted(calls.items())},
        "blocking_path_ms_p50": {
            name: statistics.median(path.get(name, 0.0) for path in paths)
            for name in layer_names},
        "untraced_op_p50_ms": plain_ms,
        "traced_op_p50_ms": seen_ms,
        "per_layer": {
            name: {"value": value, "unit": per_layer[name]["unit"],
                   "better": per_layer[name]["better"],
                   "on_this_path": args.workload in layers.CATALOG[name][0],
                   "should_move": layers.CATALOG[name][1]}
            for name, value in values.items()},
    }
    with open(stem + ".report.json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    metrics = {name: (value, per_layer[name]["unit"]) for name, value in values.items()}
    detail = {"ops_untraced": len(plain.ends), "ops_traced": len(seen.ends),
              "trace_file": os.path.relpath(stem + ".trace.json", ROOT),
              "report_file": os.path.relpath(stem + ".report.json", ROOT),
              "blocking_path_ms_p50": report["blocking_path_ms_p50"]}
    return _result(metrics, [plain, seen], detail)


def _result(metrics: Dict[str, tuple], phases: List[Any],
            detail: Dict[str, Any]) -> Dict[str, Any]:
    failures = [f for phase in phases for f in phase.failures]
    return {
        "detail": dict(detail, failures=failures[:20]),
        "result": {
            "correct": not failures,
            "attempted": sum(phase.attempted for phase in phases),
            "failed": len(failures),
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process; a table at the end."""
    status = 0
    rows = []
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE)
        status = max(status, done.returncode)
        lines = done.stdout.decode().splitlines()
        if lines:
            rows.append((name, json.loads(lines[-1])))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:32s} {value['value']:14.6g} {value['unit']}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up once and print the set-up time")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit that runs the clean-up below (server, workers).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        setup_s = time.perf_counter() - STARTED - workload.reference_s
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = traced(workload, args) if args.trace else end_to_end(workload, args, setup_s)
    finally:
        workload.close()
    print(json.dumps({"perfbench": dict(out["detail"], workload=args.workload,
                                        seed=args.seed, seconds=args.seconds,
                                        trace=args.trace, host=host_facts())},
                     sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
