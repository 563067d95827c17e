"""Probes: pulse recorders and waveform renderers.

A :class:`PulseRecorder` captures pulse arrival times on a net — this is the
primary measurement device (pulse *counts* decode pulse-stream values,
pulse *times* decode Race-Logic values).  A :class:`WaveformProbe` renders
the recorded pulses as an analog-looking trace for the waveform figures
(Figs 7 and 11 of the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np


class PulseRecorder:
    """Records every pulse time (femtoseconds) observed on one net."""

    def __init__(self, label: str = ""):
        self.label = label
        self.times: List[int] = []

    def record(self, time: int) -> None:
        self.times.append(time)

    def reset(self) -> None:
        self.times.clear()

    def count(self, start: int = 0, end: Optional[int] = None) -> int:
        """Number of pulses in ``[start, end)`` (whole history by default)."""
        if end is None and start == 0:
            return len(self.times)
        end = float("inf") if end is None else end
        return sum(1 for t in self.times if start <= t < end)

    def first(self) -> int:
        """Time of the first pulse; raises if none arrived."""
        if not self.times:
            raise ValueError(f"probe {self.label!r} recorded no pulses")
        return min(self.times)

    def in_window(self, start: int, end: int) -> List[int]:
        """Pulse times within ``[start, end)``, sorted."""
        return sorted(t for t in self.times if start <= t < end)

    def inter_pulse_intervals(self) -> List[int]:
        """Gaps between consecutive pulses (sorted order)."""
        ordered = sorted(self.times)
        return [b - a for a, b in zip(ordered, ordered[1:])]

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PulseRecorder {self.label!r}: {len(self.times)} pulses>"


class WaveformProbe(PulseRecorder):
    """A recorder that can also render pulses as a voltage-like trace.

    SFQ pulses integrate to one flux quantum; for visualisation we render
    each as a Gaussian of configurable width and amplitude, matching the
    look of the paper's WRspice waveform figures.
    """

    def __init__(
        self,
        label: str = "",
        pulse_width_fs: int = 2_000,
        amplitude_mv: float = 0.5,
    ):
        super().__init__(label)
        self.pulse_width_fs = pulse_width_fs
        self.amplitude_mv = amplitude_mv

    def render(
        self, t_start: int, t_end: int, n_samples: int = 2_000
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(time_fs, voltage_mv)`` arrays over ``[t_start, t_end]``."""
        import numpy as np

        time = np.linspace(t_start, t_end, n_samples)
        voltage = np.zeros_like(time)
        sigma = self.pulse_width_fs / 2.355  # FWHM -> sigma
        for pulse_time in self.times:
            if t_start - 5 * sigma <= pulse_time <= t_end + 5 * sigma:
                voltage += self.amplitude_mv * np.exp(
                    -0.5 * ((time - pulse_time) / sigma) ** 2
                )
        return time, voltage


def merge_timelines(recorders: Sequence[PulseRecorder]) -> List[Tuple[int, str]]:
    """Interleave several recorders into one ``(time, label)`` event list."""
    events = [
        (time, recorder.label) for recorder in recorders for time in recorder.times
    ]
    events.sort()
    return events
