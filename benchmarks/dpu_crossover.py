#!/usr/bin/env python3
"""Lane-count crossover between the DPU's two executors.

``DotProductUnit.run_counts_batch`` runs a group of dot products either
as per-row sealed ``run_counts`` calls or as lanes of one masked-SoA
``BatchSimulator`` dispatch; both give bit-identical counts.  This script
times the two on the serving benchmark's DPU config (bits=5, L=8,
bipolar) over a sweep of lane counts and reports the
crossover: the smallest measured lane count from which the batch
dispatch is at least as fast as the sealed loop, at that count and at
every larger one.  ``repro.core.dpu.BATCH_CROSSOVER_LANES`` is set from
the committed ``results/dpu-crossover.json``.

Each point times both executors ``--repeats`` times as back-to-back
pairs in alternating order, after one untimed warm-up of each (the batch
program is compiled once per circuit, as in a warm server).  Both halves
of a pair share the host's load window, so the point's
``batch_over_sealed`` is the median of the per-pair ratios; the two
median times are reported beside it.

Example::

    PYTHONPATH=src python benchmarks/dpu_crossover.py \\
        --out results/dpu-crossover.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from repro.core.dpu import DotProductUnit
from repro.encoding.epoch import EpochSpec

#: The DPU config ``perfbench`` serves (``dpu.dot`` request config).
CONFIG = {"bits": 5, "length": 8, "bipolar": True, "slot_fs": 40_000}
DEFAULT_LANES = (1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64)
SEED = 20220711


def serve_dpu() -> DotProductUnit:
    return DotProductUnit(
        EpochSpec(bits=CONFIG["bits"], slot_fs=CONFIG["slot_fs"]),
        length=CONFIG["length"],
        bipolar=CONFIG["bipolar"],
    )


def operand_rows(unit: DotProductUnit, lanes: int, seed: int):
    """``lanes`` seeded random operand rows over the unit's full domain."""
    rng = random.Random(seed)
    n_max = unit.epoch.n_max
    a_rows = [
        [rng.randint(0, n_max) for _ in range(unit.length)]
        for _ in range(lanes)
    ]
    b_rows = [
        [rng.randint(0, n_max) for _ in range(unit.length)]
        for _ in range(lanes)
    ]
    return a_rows, b_rows


def run_sealed(unit: DotProductUnit, a_rows, b_rows) -> List[int]:
    return [unit.run_counts(a, b) for a, b in zip(a_rows, b_rows)]


def run_batch(unit: DotProductUnit, a_rows, b_rows) -> List[int]:
    return unit._run_counts_batch_kernel(a_rows, b_rows).tolist()


def _timed(fn, *args) -> float:
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


def measure_point(
    unit: DotProductUnit, lanes: int, repeats: int, seed: int
) -> Dict[str, Any]:
    """Median wall times and paired ratio on one ``lanes``-row group."""
    a_rows, b_rows = operand_rows(unit, lanes, seed)
    # The untimed warm-up of both executors doubles as an agreement check.
    if run_sealed(unit, a_rows, b_rows) != run_batch(unit, a_rows, b_rows):
        raise AssertionError(f"executors disagree at {lanes} lanes")
    sealed: List[float] = []
    batch: List[float] = []
    for repeat in range(repeats):
        if repeat % 2 == 0:
            sealed.append(_timed(run_sealed, unit, a_rows, b_rows))
            batch.append(_timed(run_batch, unit, a_rows, b_rows))
        else:
            batch.append(_timed(run_batch, unit, a_rows, b_rows))
            sealed.append(_timed(run_sealed, unit, a_rows, b_rows))
    return {
        "lanes": lanes,
        "sealed_ms": round(statistics.median(sealed) * 1e3, 3),
        "batch_ms": round(statistics.median(batch) * 1e3, 3),
        "batch_over_sealed": round(
            statistics.median(b / s for b, s in zip(batch, sealed)), 3
        ),
    }


def crossover(points: Sequence[Dict[str, Any]]) -> Optional[int]:
    """Smallest lane count from which batch is at least as fast as sealed
    (paired ratio <= 1) at that point and every larger one; ``None`` when
    batch never is."""
    found: Optional[int] = None
    for point in sorted(points, key=lambda p: p["lanes"], reverse=True):
        if point["batch_over_sealed"] > 1.0:
            break
        found = point["lanes"]
    return found


def sweep(lanes: Sequence[int], repeats: int) -> Dict[str, Any]:
    unit = serve_dpu()
    points = [
        measure_point(unit, count, repeats, SEED + count) for count in lanes
    ]
    return {
        "config": CONFIG,
        "repeats": repeats,
        "seed": SEED,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "points": points,
        "crossover_lanes": crossover(points),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--lanes",
        type=int,
        nargs="+",
        default=list(DEFAULT_LANES),
        help="lane counts to measure",
    )
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--out", help="also write the JSON report here")
    args = parser.parse_args(argv)

    report = sweep(args.lanes, args.repeats)
    print(f"{'lanes':>5} {'sealed ms':>10} {'batch ms':>10} {'batch/sealed':>13}")
    for point in report["points"]:
        print(
            f"{point['lanes']:>5} {point['sealed_ms']:>10.2f} "
            f"{point['batch_ms']:>10.2f} {point['batch_over_sealed']:>13.2f}"
        )
    print(f"crossover: {report['crossover_lanes']} lanes")
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
