"""run_counts_batch: both executors are bit-identical to scalar runs.

This is the execution primitive the serving layer's micro-batcher relies
on: N concurrent dot-product requests become one group, which runs as
per-row sealed ``run_counts`` calls below ``BATCH_CROSSOVER_LANES`` rows
and as N lanes of one batch-kernel dispatch from there on.  Each row
must reproduce exactly what a dedicated ``run_counts`` call would have
produced (including the counting network's balancer hazards, which the
batch kernel vectorises), whichever executor ran it.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.dpu import BATCH_CROSSOVER_LANES, DotProductUnit, DpuModel
from repro.encoding.epoch import EpochSpec
from repro.pulsesim.batch import BatchSimulator
from repro.serve import ServeConfig

_SWEEP = Path(__file__).resolve().parents[2] / "results" / "dpu-crossover.json"


def _random_rows(rng, epoch, length, rows):
    return [
        [rng.randrange(epoch.n_max + 1) for _ in range(length)]
        for _ in range(rows)
    ]


@pytest.mark.parametrize("bipolar", [False, True])
def test_batch_lanes_match_scalar_run_counts(bipolar):
    epoch = EpochSpec(bits=3, slot_fs=40_000)
    dpu = DotProductUnit(epoch, length=2, bipolar=bipolar)
    rng = random.Random(20220919 + bipolar)
    a_rows = _random_rows(rng, epoch, dpu.length, 9)
    b_rows = _random_rows(rng, epoch, dpu.length, 9)
    batched = dpu._run_counts_batch_kernel(a_rows, b_rows)
    scalar = [dpu.run_counts(a, b) for a, b in zip(a_rows, b_rows)]
    assert batched.tolist() == scalar


def test_batch_includes_saturating_and_zero_operands():
    epoch = EpochSpec(bits=3, slot_fs=40_000)
    dpu = DotProductUnit(epoch, length=2)
    n = epoch.n_max
    a_rows = [[0, 0], [n, n], [0, n], [n, 0], [3, 5]]
    b_rows = [[n, n], [n, n], [n, 0], [0, n], [2, 7]]
    batched = dpu._run_counts_batch_kernel(a_rows, b_rows)
    scalar = [dpu.run_counts(a, b) for a, b in zip(a_rows, b_rows)]
    assert batched.tolist() == scalar


@pytest.mark.parametrize(
    "rows",
    [1, 2, BATCH_CROSSOVER_LANES - 1, BATCH_CROSSOVER_LANES, 64],
)
def test_executor_choice_at_the_crossover(rows, monkeypatch):
    """Below the crossover rows run sealed, from it on as one batch
    dispatch; either way every row matches run_counts and DpuModel."""
    epoch = EpochSpec(bits=3, slot_fs=40_000)
    dpu = DotProductUnit(epoch, length=2, bipolar=True)
    model = DpuModel(epoch, length=2, bipolar=True)
    rng = random.Random(rows)
    a_rows = _random_rows(rng, epoch, dpu.length, rows)
    b_rows = _random_rows(rng, epoch, dpu.length, rows)

    dispatches = []
    real_run = BatchSimulator.run

    def counting_run(self, *args, **kwargs):
        dispatches.append(self.batch)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(BatchSimulator, "run", counting_run)
    counts = dpu.run_counts_batch(a_rows, b_rows)

    expected_dispatches = [rows] if rows >= BATCH_CROSSOVER_LANES else []
    assert dispatches == expected_dispatches
    assert counts.dtype == np.int64 and counts.shape == (rows,)
    assert counts.tolist() == [
        dpu.run_counts(a, b) for a, b in zip(a_rows, b_rows)
    ]
    assert counts.tolist() == [
        model.output_count(a, b) for a, b in zip(a_rows, b_rows)
    ]


def test_crossover_constant_matches_the_committed_sweep():
    """BATCH_CROSSOVER_LANES is the crossover of results/dpu-crossover.json,
    measured at the serving config, and it keeps 2-lane groups sealed and
    full default-size serving groups on the batch kernel."""
    sweep = json.loads(_SWEEP.read_text())
    assert sweep["config"] == {
        "bits": 5,
        "length": 8,
        "bipolar": True,
        "slot_fs": 40_000,
    }
    assert sweep["crossover_lanes"] == BATCH_CROSSOVER_LANES
    ratios = {p["lanes"]: p["batch_over_sealed"] for p in sweep["points"]}
    assert all(
        ratio <= 1.0
        for lanes, ratio in ratios.items()
        if lanes >= BATCH_CROSSOVER_LANES
    )
    below = max(lanes for lanes in ratios if lanes < BATCH_CROSSOVER_LANES)
    assert ratios[below] > 1.0
    assert 2 < BATCH_CROSSOVER_LANES <= ServeConfig().max_batch


def test_batch_validates_shapes():
    epoch = EpochSpec(bits=3, slot_fs=40_000)
    dpu = DotProductUnit(epoch, length=2)
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        dpu.run_counts_batch([[1, 2]], [[1, 2], [3, 4]])
    with pytest.raises(ConfigurationError):
        dpu.run_counts_batch([[1, 2, 3]], [[1, 2, 3]])
    empty = dpu.run_counts_batch([], [])
    assert isinstance(empty, np.ndarray)
    assert empty.shape == (0,)


def test_batch_executor_reports_to_capture_stats():
    """The batch kernel's work reaches ``capture_stats()`` exactly as the
    same rows run through per-row sealed calls do (queue depth aside)."""
    from repro.pulsesim import capture_stats

    epoch = EpochSpec(bits=5, slot_fs=40_000)
    dpu = DotProductUnit(epoch, length=8, bipolar=True)
    rng = random.Random(48)
    a_rows = _random_rows(rng, epoch, dpu.length, BATCH_CROSSOVER_LANES)
    b_rows = _random_rows(rng, epoch, dpu.length, BATCH_CROSSOVER_LANES)
    with capture_stats() as batch:
        counts = dpu.run_counts_batch(a_rows, b_rows)
    with capture_stats() as rows:
        expected = [dpu.run_counts(a, b) for a, b in zip(a_rows, b_rows)]
    assert counts.tolist() == expected
    assert batch.events_processed == rows.events_processed > 0
    assert batch.pulses_emitted == rows.pulses_emitted > 0
    assert batch.end_time == rows.end_time > 0
    assert batch.max_queue_depth == 0
    assert batch.wall_s > 0.0
