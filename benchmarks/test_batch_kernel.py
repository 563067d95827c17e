"""Batch-kernel benchmarks: the masked event loop and the serving DPU.

The batch kernel runs thousands of independent epochs of one circuit as
lanes of a single NumPy structure-of-arrays event loop.  The first
benchmark tracks that loop at 1024 lanes on the stream fabric of
``test_microbench_kernels.py``.  The rest time the serving DPU (bits=5,
L=8, bipolar) on both executors at 1 lane and at 64 lanes, and assert
in-test which one wins on each side of
``repro.core.dpu.BATCH_CROSSOVER_LANES``.
"""

from time import perf_counter

import numpy as np
import pytest

from dpu_crossover import SEED, operand_rows, run_batch, run_sealed, serve_dpu
from repro.pulsesim import BatchSimulator
from repro.pulsesim.schedule import uniform_stream_times_batch
from test_microbench_kernels import _build_stream_fabric

_BATCH = 1024
_N_MAX = 4_096
_SLOT_FS = 12_000


def _lane_counts(head_index, batch=_BATCH):
    """Deterministic per-lane pulse counts in [64, 192): every lane is a
    different epoch, every head a different operand distribution."""
    lanes = np.arange(batch, dtype=np.int64)
    return 64 + (lanes * 7919 + head_index * 104_729) % 128


def test_batch_event_mode_stays_vectorized(benchmark):
    """The masked event loop at 1024 lanes, bounded by ``until=``.

    A short stimulus (1-8 pulses per lane and head) keeps the heap drain
    affordable in CI.
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
    assert stats.events_total > 100_000


# -- the serving DPU on both executors -----------------------------------------
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
