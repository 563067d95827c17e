"""Stimulus generators: pulse streams, Race-Logic pulses, clocks.

The U-SFQ arithmetic semantics (paper section 3) assume a computing epoch
divided into ``n_max`` time slots.  A pulse-stream operand with value
``n / n_max`` is a *uniform-rate* train of ``n`` pulses across the epoch; a
Race-Logic operand with slot id ``d`` is a single pulse at the start of
slot ``d``.  These helpers produce femtosecond pulse times that honour
those conventions so that structural simulations decode to the exact
quantised products the functional models predict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.errors import EncodingError

if TYPE_CHECKING:
    import numpy as np


def uniform_stream_times(
    n_pulses: int,
    n_max: int,
    slot_fs: int,
    start: int = 0,
) -> List[int]:
    """Times of a uniform-rate stream of ``n_pulses`` over an ``n_max``-slot epoch.

    Pulse ``k`` lands at slot ``floor(k * n_max / n_pulses)``, which spreads
    pulses as evenly as integer slots allow (the property the paper's
    TFF2-based pulse-number multiplier is designed to approximate, Fig 9b).
    """
    if not 0 <= n_pulses <= n_max:
        raise EncodingError(f"need 0 <= n_pulses <= n_max, got {n_pulses}/{n_max}")
    if slot_fs <= 0:
        raise EncodingError(f"slot width must be positive, got {slot_fs}")
    return [start + (k * n_max // n_pulses) * slot_fs for k in range(n_pulses)]


def burst_stream_times(
    n_pulses: int,
    n_max: int,
    slot_fs: int,
    start: int = 0,
) -> List[int]:
    """Times of a *burst* stream: all pulses in the first slots of the epoch.

    This is the non-uniform worst case (what a plain TFF-chain PNM emits,
    Fig 9a); multiplying with it shows the accuracy penalty of non-uniform
    spacing that motivates the TFF2 PNM.
    """
    if not 0 <= n_pulses <= n_max:
        raise EncodingError(f"need 0 <= n_pulses <= n_max, got {n_pulses}/{n_max}")
    if slot_fs <= 0:
        raise EncodingError(f"slot width must be positive, got {slot_fs}")
    return [start + k * slot_fs for k in range(n_pulses)]


def rl_pulse_time(slot_id: int, slot_fs: int, start: int = 0) -> int:
    """Arrival time of a Race-Logic pulse encoding time-slot ``slot_id``."""
    if slot_id < 0:
        raise EncodingError(f"Race-Logic slot id must be >= 0, got {slot_id}")
    if slot_fs <= 0:
        raise EncodingError(f"slot width must be positive, got {slot_fs}")
    return start + slot_id * slot_fs


def uniform_stream_times_batch(
    counts,
    n_max: int,
    slot_fs: int,
    start: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(times, lanes)`` arrays of per-lane uniform-rate streams.

    ``counts[i]`` is lane ``i``'s pulse count; lane ``i``'s times are
    exactly ``uniform_stream_times(counts[i], n_max, slot_fs, start)``.
    The result feeds :meth:`BatchSimulator.schedule_flat` directly.
    Lanes sharing a count share one vectorised time computation, so a
    Monte-Carlo batch with few distinct operand values costs almost
    nothing to build.
    """
    import numpy as np

    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1:
        raise EncodingError(f"counts must be one-dimensional, got {counts.shape}")
    if counts.size and (counts.min() < 0 or counts.max() > n_max):
        raise EncodingError(
            f"need 0 <= counts <= n_max, got range "
            f"[{int(counts.min())}, {int(counts.max())}] with n_max={n_max}"
        )
    if slot_fs <= 0:
        raise EncodingError(f"slot width must be positive, got {slot_fs}")
    all_times = []
    all_lanes = []
    for n in np.unique(counts).tolist():
        if n == 0:
            continue
        lanes = np.flatnonzero(counts == n)
        k = np.arange(n, dtype=np.int64)
        times = start + (k * n_max // n) * slot_fs
        all_times.append(np.tile(times, lanes.size))
        all_lanes.append(np.repeat(lanes, times.size))
    if not all_times:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(all_times), np.concatenate(all_lanes)


def rl_pulse_times_batch(
    slots,
    slot_fs: int,
    start: int = 0,
) -> np.ndarray:
    """Per-lane Race-Logic pulse times: ``slots[i]`` is lane ``i``'s slot.

    The ``(batch,)`` result feeds :meth:`BatchSimulator.schedule_input`
    (array form: one pulse per lane).
    """
    import numpy as np

    slots = np.asarray(slots, dtype=np.int64)
    if slots.size and slots.min() < 0:
        raise EncodingError(
            f"Race-Logic slot ids must be >= 0, got {int(slots.min())}"
        )
    if slot_fs <= 0:
        raise EncodingError(f"slot width must be positive, got {slot_fs}")
    return start + slots * slot_fs


def clock_times(
    period_fs: int,
    count: int,
    start: int = 0,
) -> List[int]:
    """``count`` clock pulse times with the given period, first at ``start``."""
    if period_fs <= 0:
        raise EncodingError(f"clock period must be positive, got {period_fs}")
    if count < 0:
        raise EncodingError(f"clock pulse count must be >= 0, got {count}")
    return [start + k * period_fs for k in range(count)]
