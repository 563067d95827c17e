#!/usr/bin/env python3
"""Gate a pytest-benchmark JSON run against the committed baseline.

Four always-on checks, the most machine-independent ones first, plus an
opt-in fifth:

1. **Kernel speedup ratio** (within the new run, so host speed cancels
   out): for every pair ``<name>_reference_kernel`` /
   ``<name>_sealed_kernel``, the sealed median must be at least
   ``--min-speedup`` times faster than the reference median.  This is the
   property the compiled kernel exists for; losing it is a regression no
   matter how fast the host is.

2. **Shard speedup floor** (``--min-shard-speedup``, default 2.5x, also
   within the new run): for every pair ``<name>_shard_k<K>`` /
   ``<name>_shard_mono``, the K-worker partitioned run must beat the
   monolithic sealed run on wall clock.  CPU-aware: lanes whose
   recording host had fewer than K CPUs are reported but skipped (a
   1-CPU container cannot demonstrate parallel speedup), so the floor
   only bites where it is physically meaningful.

3. **Serve coalescing floor** (``--min-serve-speedup``, default 0.8x,
   also within the new run): for every pair ``<name>_serve_coalesced``
   / ``<name>_serve_solo`` that recorded per-run request counts in
   ``extra_info``, the micro-batching server's requests/s must be at
   least the floor times the ``max_batch=1`` server's.  The solo server
   runs every request on the sealed kernel, the fastest executor for a
   lone request, so the floor holds coalescing to "does not lose to
   the best per-request server".  Skipped when the run has no
   ``*_serve_coalesced`` benchmarks.

4. **Relative regression vs baseline**: medians are normalised by the
   run-wide median of new/baseline ratios, which absorbs the host being
   uniformly slower or faster than the machine that produced
   ``BENCH_baseline.json``.  Any single benchmark whose *normalised*
   median regresses more than ``--threshold`` (default 25%) fails — that
   shape of change means one code path got slower, not that CI got a cold
   runner.

5. **Tracing-off overhead** (``--max-trace-overhead``, measured by this
   script itself): the public ``Simulator.run()`` — whose only addition
   over the kernel loop is the is-a-trace-session-installed dispatch —
   against the sealed ``_run`` loop called directly, interleaved in one
   process so host-load drift cancels (see
   :func:`measure_trace_off_overhead`).  CI passes ``0.02``: tracing
   switched off must stay under 2% overhead.

A benchmark present in the baseline but missing from the run fails the
gate (a silently dropped benchmark must not look like a pass); one
present only in the run is reported but allowed, so a PR can add
benchmarks and re-baseline in the same change.

Re-baseline (run from the repository root; the same five files as CI's
``benchmarks`` job, so no baseline entry is silently dropped)::

    PYTHONPATH=src python -m pytest benchmarks/test_microbench_kernels.py \
        benchmarks/test_batch_kernel.py benchmarks/test_shard_kernel.py \
        benchmarks/test_analyze_static.py benchmarks/test_serve_latency.py \
        --benchmark-json=benchmarks/BENCH_baseline.json -q

Gate a fresh run::

    PYTHONPATH=src python -m pytest benchmarks/test_microbench_kernels.py \
        benchmarks/test_batch_kernel.py benchmarks/test_shard_kernel.py \
        benchmarks/test_analyze_static.py benchmarks/test_serve_latency.py \
        --benchmark-json=bench.json -q
    python benchmarks/check_regression.py bench.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_REF_SUFFIX = "_reference_kernel"
_SEALED_SUFFIX = "_sealed_kernel"
_SHARD_MONO_SUFFIX = "_shard_mono"
_SHARD_K_MARKER = "_shard_k"
_SERVE_COALESCED_SUFFIX = "_serve_coalesced"
_SERVE_SOLO_SUFFIX = "_serve_solo"


def load_medians(path: Path) -> Dict[str, float]:
    """``benchmark name -> median seconds`` from a pytest-benchmark JSON."""
    with open(path) as handle:
        document = json.load(handle)
    return {
        bench["name"]: bench["stats"]["median"]
        for bench in document["benchmarks"]
    }


def load_extra(path: Path) -> Dict[str, dict]:
    """``benchmark name -> full extra_info dict`` for every benchmark."""
    with open(path) as handle:
        document = json.load(handle)
    return {
        bench["name"]: bench.get("extra_info", {})
        for bench in document["benchmarks"]
    }


def check_speedups(
    new: Dict[str, float], min_speedup: float, failures: List[str]
) -> None:
    pairs = [
        (name, name[: -len(_REF_SUFFIX)] + _SEALED_SUFFIX)
        for name in sorted(new)
        if name.endswith(_REF_SUFFIX)
    ]
    for reference, sealed in pairs:
        if sealed not in new:
            failures.append(f"{reference} has no {sealed} counterpart")
            continue
        speedup = new[reference] / new[sealed]
        verdict = "ok" if speedup >= min_speedup else "FAIL"
        print(
            f"  speedup {reference[: -len(_REF_SUFFIX)]}: "
            f"sealed is {speedup:.2f}x faster than reference "
            f"(floor {min_speedup:.2f}x) [{verdict}]"
        )
        if speedup < min_speedup:
            failures.append(
                f"sealed kernel only {speedup:.2f}x faster than reference "
                f"on {reference[: -len(_REF_SUFFIX)]} (need {min_speedup:.2f}x)"
            )


def check_shard_speedup(
    new: Dict[str, float],
    extra: Dict[str, dict],
    min_speedup: float,
    failures: List[str],
) -> None:
    """Parallel-speedup floor: for every ``<name>_shard_k<K>`` /
    ``<name>_shard_mono`` pair, the K-worker partitioned run must beat
    the monolithic sealed run by ``min(min_speedup, min_speedup * K/4)``
    — i.e. the full floor at the headline K=4 lane, proportionally less
    at K=2, and never more than the flag asks for.

    CPU-aware: each shard benchmark records the recording host's
    ``os.cpu_count()`` in ``extra_info["cpus"]``; lanes the host could
    not physically parallelise (``cpus < K``, including 1-CPU CI
    containers) are reported but not enforced, as is the K=1 sanity
    lane.  A shard lane that *failed to record* cpus fails the gate —
    an unknowable host must not look like a pass.
    """
    shard_names = [
        name for name in sorted(new)
        if _SHARD_K_MARKER in name and not name.endswith(_SHARD_MONO_SUFFIX)
    ]
    if not shard_names:
        print("  (no *_shard_k* benchmarks in this run)")
        return
    for name in shard_names:
        base, _, k_text = name.rpartition(_SHARD_K_MARKER)
        try:
            num_shards = int(k_text)
        except ValueError:
            continue  # not a shard lane, just a name collision
        mono = base + _SHARD_MONO_SUFFIX
        if mono not in new:
            failures.append(f"{name} has no {mono} counterpart")
            continue
        cpus = extra.get(name, {}).get("cpus")
        if cpus is None:
            failures.append(
                f"{name}: no extra_info['cpus'] recorded; cannot tell "
                "whether the host could parallelise this lane"
            )
            continue
        speedup = new[mono] / new[name]
        if num_shards < 2 or cpus < num_shards:
            reason = ("sanity lane" if num_shards < 2
                      else f"host had {cpus} CPU(s)")
            print(
                f"  shard speedup {base} K={num_shards}: {speedup:.2f}x "
                f"vs monolithic [skipped: {reason}]"
            )
            continue
        floor = min(min_speedup, min_speedup * num_shards / 4.0)
        verdict = "ok" if speedup >= floor else "FAIL"
        print(
            f"  shard speedup {base} K={num_shards}: {speedup:.2f}x vs "
            f"monolithic (floor {floor:.2f}x, host {cpus} CPUs) [{verdict}]"
        )
        if speedup < floor:
            failures.append(
                f"{num_shards}-shard parallel run only {speedup:.2f}x the "
                f"monolithic sealed run on {base} (need {floor:.2f}x on a "
                f"{cpus}-CPU host)"
            )


def check_serve_throughput(
    new: Dict[str, float],
    extra: Dict[str, dict],
    min_speedup: float,
    failures: List[str],
) -> None:
    """Serving-layer floor: for every ``<name>_serve_coalesced`` /
    ``<name>_serve_solo`` pair that recorded per-run request counts, the
    micro-batching server's requests/s must be at least ``min_speedup``
    times the ``max_batch=1`` server's.  Both halves come from the same
    run on the same host with the same worker tier, so the ratio
    isolates coalescing itself.
    """
    coalesced_names = [
        name for name in sorted(new)
        if name.endswith(_SERVE_COALESCED_SUFFIX)
    ]
    if not coalesced_names:
        print("  (no *_serve_coalesced benchmarks in this run)")
        return
    for coalesced in coalesced_names:
        solo = coalesced[: -len(_SERVE_COALESCED_SUFFIX)] + _SERVE_SOLO_SUFFIX
        if solo not in new:
            failures.append(f"{coalesced} has no {solo} counterpart")
            continue
        missing = [
            n for n in (coalesced, solo)
            if "requests" not in extra.get(n, {})
        ]
        if missing:
            failures.append(
                f"{', '.join(missing)}: no extra_info['requests'] recorded; "
                "cannot gate serve throughput"
            )
            continue
        coalesced_rate = extra[coalesced]["requests"] / new[coalesced]
        solo_rate = extra[solo]["requests"] / new[solo]
        speedup = coalesced_rate / solo_rate
        base = coalesced[: -len(_SERVE_COALESCED_SUFFIX)]
        verdict = "ok" if speedup >= min_speedup else "FAIL"
        print(
            f"  serve throughput {base}: "
            f"{coalesced_rate:,.0f} vs {solo_rate:,.0f} requests/s "
            f"({speedup:.1f}x, floor {min_speedup:.1f}x) [{verdict}]"
        )
        if speedup < min_speedup:
            failures.append(
                f"coalescing server only {speedup:.1f}x the max_batch=1 "
                f"server's requests/s on {base} (need {min_speedup:.1f}x)"
            )


def measure_trace_off_overhead(pairs: int = 200) -> Tuple[float, float, float]:
    """Paired-ratio cost of the ``run()`` dispatch vs the raw sealed loop.

    Sequential pytest-benchmark blocks can land in different host-load
    windows (frequency scaling, noisy CI neighbours), which swamps a 2%
    comparison between two ~250 ms benchmarks.  Instead, each sample here
    is a *back-to-back pair* — one ``Simulator.run()`` epoch and one
    direct ``_run`` epoch, order alternating — so both halves of a ratio
    share the same load window; the median over the pair ratios then
    discards the pairs that straddled a load change.  Single pair ratios
    spread about ±10% on a shared 2-CPU host, so on that host 15 pairs
    read -4% to +5% on unchanged code and 100 pairs once read +1.4%;
    200 pairs kept three calls in a row within ±1%.  Returns
    ``(median_ratio, run_min_s, hotloop_min_s)``.

    Imports the stream-fabric workload from ``test_microbench_kernels``
    (``src/`` and ``benchmarks/`` are put on ``sys.path`` by :func:`main`).
    """
    import gc
    from time import perf_counter

    from test_microbench_kernels import _run_stream_fabric

    def one(direct: bool) -> float:
        gc.collect()
        start = perf_counter()
        _run_stream_fabric("sealed", direct)
        return perf_counter() - start

    one(False)  # warm-up epoch, discarded
    ratios: List[float] = []
    run_min = hot_min = float("inf")
    for index in range(pairs):
        if index % 2 == 0:
            run_s, hot_s = one(False), one(True)
        else:
            hot_s, run_s = one(True), one(False)
        ratios.append(run_s / hot_s)
        run_min = min(run_min, run_s)
        hot_min = min(hot_min, hot_s)
    return statistics.median(ratios), run_min, hot_min


def check_trace_overhead(max_overhead: float, failures: List[str]) -> None:
    """Tracing switched off must cost ``<= max_overhead`` on the hot path."""
    try:
        ratio, run_min, hot_min = measure_trace_off_overhead()
    except ImportError as exc:
        failures.append(f"cannot measure trace overhead ({exc})")
        return
    overhead = ratio - 1.0
    verdict = "ok" if overhead <= max_overhead else "FAIL"
    print(
        f"  trace-off overhead stream_fabric: {overhead:+.1%} median over "
        f"paired epochs (cap {max_overhead:.0%}; mins: run() "
        f"{run_min * 1e3:.2f} ms, hot loop {hot_min * 1e3:.2f} ms) "
        f"[{verdict}]"
    )
    if overhead > max_overhead:
        failures.append(
            f"tracing-off dispatch costs {overhead:+.1%} over the raw "
            f"sealed hot loop (cap {max_overhead:.0%})"
        )


def check_baseline(
    new: Dict[str, float],
    baseline: Dict[str, float],
    threshold: float,
    failures: List[str],
) -> None:
    missing = sorted(set(baseline) - set(new))
    for name in missing:
        failures.append(f"benchmark {name} is in the baseline but was not run")
    added = sorted(set(new) - set(baseline))
    for name in added:
        print(f"  new benchmark {name}: not in baseline, skipped "
              "(re-baseline to start tracking it)")
    common = sorted(set(new) & set(baseline))
    if not common:
        failures.append("no benchmarks in common with the baseline")
        return
    ratios = {name: new[name] / baseline[name] for name in common}
    scale = statistics.median(ratios.values())
    print(f"  host speed vs baseline machine: {scale:.2f}x "
          "(medians normalised by this before comparing)")
    for name in common:
        relative = ratios[name] / scale - 1.0
        verdict = "ok" if relative <= threshold else "FAIL"
        print(
            f"  {name}: {new[name] * 1e3:.2f} ms vs baseline "
            f"{baseline[name] * 1e3:.2f} ms "
            f"({relative:+.1%} after normalisation) [{verdict}]"
        )
        if relative > threshold:
            failures.append(
                f"{name} regressed {relative:+.1%} vs baseline "
                f"(threshold {threshold:.0%})"
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a kernel benchmark regresses vs the baseline."
    )
    parser.add_argument("run", help="pytest-benchmark JSON of the new run")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent / "BENCH_baseline.json"),
        help="committed baseline JSON (default: benchmarks/BENCH_baseline.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="allowed normalised regression per benchmark (default: 0.25)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        metavar="X",
        help="required sealed-vs-reference speedup within the run "
        "(default: 2.0 — generous so noisy CI hosts do not flake; the "
        "committed results/ measurements track the real figure)",
    )
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=2.5,
        metavar="X",
        help="required K-shard-vs-monolithic wall-clock speedup at K=4 "
        "(scaled proportionally for other K; default: 2.5; lanes the "
        "recording host could not parallelise are skipped, so 1-CPU "
        "containers still run the benchmarks without flaking the gate)",
    )
    parser.add_argument(
        "--min-serve-speedup",
        type=float,
        default=0.8,
        metavar="X",
        help="required coalesced-vs-solo requests/s ratio for every "
        "*_serve_coalesced / *_serve_solo pair (default: 0.8 — below "
        "the 1.06-2.0x, median 1.5x, measured over 11 runs on a 2-CPU "
        "host; skipped when the run contains no serve benchmarks)",
    )
    parser.add_argument(
        "--max-trace-overhead",
        type=float,
        default=None,
        metavar="FRACTION",
        help="additionally fail when the public run() dispatch costs more "
        "than this fraction over the raw sealed hot loop (measured "
        "interleaved in-process; CI uses 0.02: tracing switched off must "
        "stay under 2%% overhead)",
    )
    args = parser.parse_args(argv)
    here = Path(__file__).resolve().parent
    for path in (here, here.parent / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    new = load_medians(Path(args.run))
    baseline = load_medians(Path(args.baseline))
    failures: List[str] = []
    print("kernel speedup gate:")
    check_speedups(new, args.min_speedup, failures)
    extra = load_extra(Path(args.run))
    print("shard speedup gate:")
    check_shard_speedup(new, extra, args.min_shard_speedup, failures)
    print("serve throughput gate:")
    check_serve_throughput(new, extra, args.min_serve_speedup, failures)
    if args.max_trace_overhead is not None:
        print("tracing-off overhead gate:")
        check_trace_overhead(args.max_trace_overhead, failures)
    print("baseline regression gate:")
    check_baseline(new, baseline, args.threshold, failures)

    if failures:
        print(f"\nFAIL: {len(failures)} benchmark regression(s)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: no benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
