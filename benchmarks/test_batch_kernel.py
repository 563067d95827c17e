"""Batch-kernel benchmarks: the masked event loop and the serving DPU.

The batch kernel runs thousands of independent epochs of one circuit as
lanes of a single NumPy structure-of-arrays event loop.  The first
benchmark tracks that loop at 1024 lanes on the stream fabric of
``test_microbench_kernels.py``.  The rest time the serving DPU (bits=5,
L=8, bipolar) as the server runs a group: one sealed ``run_counts`` call
per row, at 1 row and at 64 rows.
"""

import random

import numpy as np
import pytest

from repro.core.dpu import DotProductUnit
from repro.encoding.epoch import EpochSpec
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


# -- the serving DPU ------------------------------------------------------------
_DPU_LANES = (1, 64)
_SEED = 20220711


def _serve_dpu() -> DotProductUnit:
    """The DPU config ``perfbench`` serves (``dpu.dot`` request config)."""
    return DotProductUnit(EpochSpec(bits=5, slot_fs=40_000), 8, bipolar=True)


def _operand_rows(unit, lanes, seed):
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


def _run_sealed(unit, a_rows, b_rows):
    return [unit.run_counts(a, b) for a, b in zip(a_rows, b_rows)]


@pytest.mark.parametrize("lanes", _DPU_LANES)
def test_dpu_serve_config_sealed_runs(benchmark, lanes):
    """The rows as sequential sealed ``run_counts`` calls."""
    unit = _serve_dpu()
    a_rows, b_rows = _operand_rows(unit, lanes, _SEED)
    expected = _run_sealed(unit, a_rows, b_rows)  # untimed warm-up
    assert benchmark(_run_sealed, unit, a_rows, b_rows) == expected
    benchmark.extra_info["lanes"] = lanes
