"""run_counts_batch, and the DPU circuit on the batch kernel.

``run_counts_batch`` is the execution primitive the serving layer's
micro-batcher relies on: N concurrent dot-product requests become one
group, whose rows run as per-row sealed ``run_counts`` calls.  Each row
must reproduce exactly what a dedicated ``run_counts`` call would have
produced.  The same rows as lanes of one batch-kernel dispatch on the DPU
circuit must agree too (including the counting network's balancer
hazards, which the batch kernel vectorises).
"""

import random

import pytest

from repro.core.dpu import DotProductUnit, DpuModel
from repro.encoding.epoch import EpochSpec
from tests.strategies import dpu_batch_counts


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
    batched = dpu_batch_counts(dpu, a_rows, b_rows)
    scalar = [dpu.run_counts(a, b) for a, b in zip(a_rows, b_rows)]
    assert batched == scalar


def test_batch_includes_saturating_and_zero_operands():
    epoch = EpochSpec(bits=3, slot_fs=40_000)
    dpu = DotProductUnit(epoch, length=2)
    n = epoch.n_max
    a_rows = [[0, 0], [n, n], [0, n], [n, 0], [3, 5]]
    b_rows = [[n, n], [n, n], [n, 0], [0, n], [2, 7]]
    batched = dpu_batch_counts(dpu, a_rows, b_rows)
    scalar = [dpu.run_counts(a, b) for a, b in zip(a_rows, b_rows)]
    assert batched == scalar


@pytest.mark.parametrize("rows", [1, 2, 64])
def test_run_counts_batch_rows_match_run_counts_and_the_model(rows):
    epoch = EpochSpec(bits=3, slot_fs=40_000)
    dpu = DotProductUnit(epoch, length=2, bipolar=True)
    model = DpuModel(epoch, length=2, bipolar=True)
    rng = random.Random(rows)
    a_rows = _random_rows(rng, epoch, dpu.length, rows)
    b_rows = _random_rows(rng, epoch, dpu.length, rows)
    counts = dpu.run_counts_batch(a_rows, b_rows)
    assert type(counts) is list and len(counts) == rows
    assert counts == [dpu.run_counts(a, b) for a, b in zip(a_rows, b_rows)]
    assert counts == [
        model.output_count(a, b) for a, b in zip(a_rows, b_rows)
    ]


def test_batch_validates_shapes():
    epoch = EpochSpec(bits=3, slot_fs=40_000)
    dpu = DotProductUnit(epoch, length=2)
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        dpu.run_counts_batch([[1, 2]], [[1, 2], [3, 4]])
    with pytest.raises(ConfigurationError):
        dpu.run_counts_batch([[1, 2, 3]], [[1, 2, 3]])
    empty = dpu.run_counts_batch([], [])
    assert isinstance(empty, list)
    assert empty == []


def test_batch_executor_reports_to_capture_stats():
    """The batch kernel's work on the DPU circuit reaches
    ``capture_stats()`` exactly as the same rows run through
    ``run_counts_batch`` do (queue depth aside)."""
    from repro.pulsesim import capture_stats

    epoch = EpochSpec(bits=5, slot_fs=40_000)
    dpu = DotProductUnit(epoch, length=8, bipolar=True)
    rng = random.Random(48)
    a_rows = _random_rows(rng, epoch, dpu.length, 48)
    b_rows = _random_rows(rng, epoch, dpu.length, 48)
    with capture_stats() as batch:
        counts = dpu_batch_counts(dpu, a_rows, b_rows)
    with capture_stats() as rows:
        expected = dpu.run_counts_batch(a_rows, b_rows)
    assert counts == expected
    assert batch.events_processed == rows.events_processed > 0
    assert batch.pulses_emitted == rows.pulses_emitted > 0
    assert batch.end_time == rows.end_time > 0
    assert batch.max_queue_depth == 0
    assert batch.wall_s > 0.0
