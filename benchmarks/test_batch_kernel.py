"""Batch-kernel throughput benchmarks and the fleet-scale speedup floor.

The batch kernel exists for Monte-Carlo fleets: thousands of independent
epochs of one circuit executed as lanes of a single NumPy
structure-of-arrays program.  These benchmarks drive the same stream
fabric as ``test_microbench_kernels.py`` with 1024 lanes of per-lane
varied stimulus, track aggregate throughput in the baseline history, and
assert the headline property in-test: at batch >= 1024 the batch kernel
must sustain at least 50x the aggregate events/s of the scalar sealed
kernel on this fabric.  ``check_regression.py`` re-derives the same floor
from the benchmark JSON (``extra_info["events"]`` / median), so the gate
also holds across the committed baseline.

That floor is a property of the analytic path.  Stateful circuits take
the masked-SoA event loop instead, so the second half of this file
times one of them, the serving DPU (bits=5, L=8, bipolar), on both
executors at 1 lane and at 64 lanes, and asserts in-test which one wins
on each side of ``repro.core.dpu.BATCH_CROSSOVER_LANES``.
"""

from time import perf_counter

import numpy as np
import pytest

from dpu_crossover import SEED, operand_rows, run_batch, run_sealed, serve_dpu
from repro.pulsesim import BatchSimulator, Simulator
from repro.pulsesim.schedule import uniform_stream_times_batch
from test_microbench_kernels import _FABRIC_LANES, _build_stream_fabric

_BATCH = 1024
_SPEEDUP_FLOOR = 50.0
_N_MAX = 4_096
_SLOT_FS = 12_000


def _lane_counts(head_index, batch=_BATCH):
    """Deterministic per-lane pulse counts in [64, 192): every lane is a
    different epoch, every head a different operand distribution."""
    lanes = np.arange(batch, dtype=np.int64)
    return 64 + (lanes * 7919 + head_index * 104_729) % 128


def _run_stream_fabric_batch(batch=_BATCH):
    """One batch run of the fabric: fresh build (compile cost counts),
    per-lane-varied uniform streams on every head."""
    circuit, heads, _probe = _build_stream_fabric()
    sim = BatchSimulator(circuit, batch=batch, max_events=1_000_000_000)
    for index, head in enumerate(heads):
        times, lanes = uniform_stream_times_batch(
            _lane_counts(index, batch), _N_MAX, _SLOT_FS
        )
        sim.schedule_flat(head, "a", times, lanes)
    return sim.run()


def _run_one_lane_sealed(lane=0):
    """The scalar yardstick: lane 0's exact workload under the sealed kernel."""
    circuit, heads, _probe = _build_stream_fabric()
    sim = Simulator(circuit, kernel="sealed")
    for index, head in enumerate(heads):
        times, lanes = uniform_stream_times_batch(_lane_counts(index), _N_MAX, _SLOT_FS)
        sim.schedule_train(head, "a", np.sort(times[lanes == lane]).tolist())
    return sim.run()


def test_stream_fabric_batch_kernel(benchmark):
    """1024-lane batch run of the stream fabric (analytic fast path)."""
    stats = benchmark(_run_stream_fabric_batch)
    assert stats.batch == _BATCH
    assert stats.mode == "analytic"
    assert stats.events_total > 10_000_000
    # Aggregate lane-events per run, for check_regression.py's
    # batch-throughput gate (events / median = aggregate events/s).
    benchmark.extra_info["events"] = stats.events_total


def test_batch_event_mode_stays_vectorized(benchmark):
    """The masked event loop at 1024 lanes (forced via until=...).

    Far slower than the analytic path — that is the point of tracking it:
    this is the general-case fallback every stateful circuit takes.  A
    shorter stimulus keeps the heap drain affordable in CI.
    """

    def run():
        circuit, heads, _probe = _build_stream_fabric()
        sim = BatchSimulator(circuit, batch=_BATCH, max_events=1_000_000_000)
        for index, head in enumerate(heads):
            counts = 1 + _lane_counts(index) % 8  # 1..8 pulses per lane
            times, lanes = uniform_stream_times_batch(counts, _N_MAX, _SLOT_FS)
            sim.schedule_flat(head, "a", times, lanes)
        return sim.run(until=_N_MAX * _SLOT_FS)

    stats = benchmark(run)
    assert stats.mode == "event"
    assert stats.events_total > 100_000


def test_batch_speedup_floor_at_1024_lanes():
    """The headline claim: >= 50x aggregate events/s over the sealed kernel.

    Both sides run the same fabric; the scalar side runs lane 0's exact
    workload, the batch side runs all 1024 lanes.  Best-of-3 on each side
    damps scheduler noise; the floor leaves a wide margin over the
    measured ratio (hundreds on a warm host).
    """
    scalar_s = float("inf")
    for _ in range(3):
        start = perf_counter()
        scalar_stats = _run_one_lane_sealed()
        scalar_s = min(scalar_s, perf_counter() - start)
    batch_s = float("inf")
    for _ in range(3):
        start = perf_counter()
        batch_stats = _run_stream_fabric_batch()
        batch_s = min(batch_s, perf_counter() - start)

    # Same per-lane workload on both sides, so lane-event totals line up.
    assert int(batch_stats.events[0]) == scalar_stats.events_processed

    scalar_rate = scalar_stats.events_processed / scalar_s
    batch_rate = batch_stats.events_total / batch_s
    speedup = batch_rate / scalar_rate
    print(
        f"\naggregate throughput: sealed {scalar_rate:,.0f} events/s, "
        f"batch({_BATCH}) {batch_rate:,.0f} events/s -> {speedup:.0f}x"
    )
    assert speedup >= _SPEEDUP_FLOOR, (
        f"batch kernel only {speedup:.1f}x the sealed kernel's aggregate "
        f"events/s at batch={_BATCH} (floor {_SPEEDUP_FLOOR}x)"
    )
    assert _FABRIC_LANES == len(_build_stream_fabric()[1])


# -- the stateful pair: the serving DPU on both executors -----------------------
# Named off the *_batch_kernel / *_sealed_kernel pattern on purpose: the
# 50x events/s floor above is a stream-fabric property, not a DPU one.
_DPU_LANES = (1, 64)


def _bench_dpu(benchmark, lanes, run):
    unit = serve_dpu()
    a_rows, b_rows = operand_rows(unit, lanes, SEED)
    expected = run_sealed(unit, a_rows, b_rows)
    run(unit, a_rows, b_rows)  # untimed: compiles the batch program
    assert benchmark(run, unit, a_rows, b_rows) == expected
    benchmark.extra_info["lanes"] = lanes


@pytest.mark.parametrize("lanes", _DPU_LANES)
def test_dpu_serve_config_batch_dispatch(benchmark, lanes):
    """All rows as lanes of one masked-SoA batch dispatch."""
    _bench_dpu(benchmark, lanes, run_batch)


@pytest.mark.parametrize("lanes", _DPU_LANES)
def test_dpu_serve_config_sealed_runs(benchmark, lanes):
    """The same rows as sequential sealed ``run_counts`` calls."""
    _bench_dpu(benchmark, lanes, run_sealed)


def _best_of_3(run, *args):
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        run(*args)
        best = min(best, perf_counter() - start)
    return best


def test_dpu_executor_wins_on_each_side_of_the_crossover():
    """Sealed beats batch at 1 lane; batch beats sealed at 64 lanes."""
    unit = serve_dpu()
    for lanes, winner in ((1, "sealed"), (64, "batch")):
        a_rows, b_rows = operand_rows(unit, lanes, SEED)
        run_batch(unit, a_rows, b_rows)  # compile outside the timings
        best = {
            "sealed": _best_of_3(run_sealed, unit, a_rows, b_rows),
            "batch": _best_of_3(run_batch, unit, a_rows, b_rows),
        }
        print(
            f"\nDPU {lanes} lane(s): sealed {best['sealed'] * 1e3:.1f} ms, "
            f"batch {best['batch'] * 1e3:.1f} ms"
        )
        loser = "batch" if winner == "sealed" else "sealed"
        assert best[winner] < best[loser], (
            f"at {lanes} lane(s) {winner} took {best[winner] * 1e3:.1f} ms, "
            f"{loser} {best[loser] * 1e3:.1f} ms"
        )
