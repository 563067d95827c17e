"""The U-SFQ dot-product unit (paper section 5.3, Fig 15).

A DPU of length L instantiates L multipliers in parallel — affordable only
because each U-SFQ multiplier is tens of JJs — and combines their output
streams through an L:1 counting network:

    Y = (a0*b0 + a1*b1 + ... + a_{L-1}*b_{L-1}) / L

with the ``a`` operands in Race-Logic format and the ``b`` operands as
pulse streams.  :class:`DotProductUnit` is the structural netlist;
:class:`DpuModel` is the functional counterpart (exact ceil-cascade
semantics), vectorised for the FIR and the evaluation sweeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.core.counting import (
    build_counting_network,
    counting_network_jj,
    counting_network_output_count,
)
from repro.core.multiplier import (
    MULTIPLIER_UNIPOLAR_JJ,
    SETUP_FS,
    build_unipolar_multiplier,
    bipolar_product_count,
    unipolar_product_count,
)
from repro.encoding.epoch import EpochSpec
from repro.encoding.pulsestream import PulseStreamCodec
from repro.encoding.racelogic import RaceLogicCodec
from repro.errors import ConfigurationError
from repro.pulsesim.block import Block
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.simulator import Simulator

if TYPE_CHECKING:
    import numpy as np


def _check_length(length: int) -> int:
    if length < 2 or length & (length - 1):
        raise ConfigurationError(
            f"DPU length must be a power of two >= 2, got {length}"
        )
    return length


def dpu_compute_jj(length: int, bipolar: bool = False) -> int:
    """JJ budget of the DPU datapath: L multipliers + the counting network."""
    from repro.core.multiplier import MULTIPLIER_BIPOLAR_JJ

    _check_length(length)
    per_mult = MULTIPLIER_BIPOLAR_JJ if bipolar else MULTIPLIER_UNIPOLAR_JJ
    return length * per_mult + counting_network_jj(length)


def build_dpu(
    circuit: Circuit, name: str, length: int, bipolar: bool = False
) -> Block:
    """Assemble a DPU: L multipliers into an L:1 counting network.

    Exposed ports: per lane ``a{i}`` (RL), ``b{i}`` (stream), and
    ``epoch{i}``; output ``y`` (stream carrying the scaled dot product).
    Bipolar DPUs additionally expose per-lane ``refclk{i}`` inputs for the
    inverters' maximum-rate reference.
    """
    from repro.core.multiplier import build_bipolar_multiplier

    _check_length(length)
    block = Block(circuit, name)

    network = build_counting_network(circuit, f"{name}.cn", length)
    block.elements.extend(network.elements)

    builder = build_bipolar_multiplier if bipolar else build_unipolar_multiplier
    for lane in range(length):
        mult = builder(circuit, f"{name}.mul{lane}")
        block.elements.extend(mult.elements)
        src_element, src_port = mult.output("out")
        dst_element, dst_port = network.input(f"a{lane}")
        circuit.connect(src_element, src_port, dst_element, dst_port)
        a_element, a_port = mult.input("b")
        b_element, b_port = mult.input("a")
        e_element, e_port = mult.input("epoch")
        block.expose_input(f"a{lane}", a_element, a_port)
        block.expose_input(f"b{lane}", b_element, b_port)
        block.expose_input(f"epoch{lane}", e_element, e_port)
        if bipolar:
            r_element, r_port = mult.input("refclk")
            block.expose_input(f"refclk{lane}", r_element, r_port)

    y_element, y_port = network.output("y")
    block.expose_output("y", y_element, y_port)
    return block


class DotProductUnit:
    """Self-contained structural DPU (unipolar or bipolar lanes)."""

    def __init__(
        self,
        epoch: EpochSpec,
        length: int,
        bipolar: bool = False,
        trace=None,
    ):
        self.epoch = epoch
        self.length = _check_length(length)
        self.bipolar = bipolar
        #: Optional :class:`repro.trace.TraceSession` passed to every
        #: simulator this wrapper builds (attach taps separately).
        self.trace = trace
        self.streams = PulseStreamCodec(epoch)
        self.race = RaceLogicCodec(epoch)
        self.circuit = Circuit(f"dpu_{length}{'_bipolar' if bipolar else ''}")
        self.block = build_dpu(self.circuit, "dpu", length, bipolar=bipolar)
        self.output = self.block.probe_output("y")
        self.circuit.seal()

    @property
    def jj_count(self) -> int:
        return dpu_compute_jj(self.length, self.bipolar)

    def run_counts(self, a_slots: Sequence[int], b_counts: Sequence[int]) -> int:
        """One epoch; returns the output pulse count."""
        if len(a_slots) != self.length or len(b_counts) != self.length:
            raise ConfigurationError(
                f"expected {self.length} operands per side, got "
                f"{len(a_slots)}/{len(b_counts)}"
            )
        sim = Simulator(self.circuit, trace=self.trace)
        sim.reset()
        refclk = (
            self.streams.times_for_count(self.epoch.n_max) if self.bipolar else None
        )
        for lane in range(self.length):
            self.block.drive(sim, f"epoch{lane}", 0)
            self.block.drive(
                sim,
                f"b{lane}",
                [
                    t + SETUP_FS
                    for t in self.streams.times_for_count(b_counts[lane])
                ],
            )
            if refclk is not None:
                self.block.drive(
                    sim, f"refclk{lane}", [t + SETUP_FS for t in refclk]
                )
            if a_slots[lane] < self.epoch.n_max:
                self.block.drive(
                    sim,
                    f"a{lane}",
                    SETUP_FS + self.epoch.slot_time(a_slots[lane]),
                )
        sim.run()
        return self.output.count()

    def dot(self, a_values: Sequence[float], b_values: Sequence[float]) -> float:
        """Unipolar dot product, decoded (result is sum / L)."""
        slots = [self.race.slot_for_unipolar(v) for v in a_values]
        counts = [self.streams.count_for_unipolar(v) for v in b_values]
        count = self.run_counts(slots, counts)
        return count * self.length / self.epoch.n_max

    def run_counts_batch(
        self,
        a_slot_rows: Sequence[Sequence[int]],
        b_count_rows: Sequence[Sequence[int]],
    ) -> List[int]:
        """Many independent single-epoch dot products; one count per row.

        Row ``i`` carries the operands :meth:`run_counts` would take for
        request ``i``, and runs as that call.  One sealed run per row, on
        the native loop, beats lanes of one batch dispatch at every group
        size.  This is the execution shape the serving layer's
        micro-batcher coalesces concurrent requests into.
        """
        rows = len(a_slot_rows)
        if rows != len(b_count_rows):
            raise ConfigurationError(
                f"row counts differ: {rows} vs {len(b_count_rows)}"
            )
        for row, (a_slots, b_counts) in enumerate(
            zip(a_slot_rows, b_count_rows)
        ):
            if len(a_slots) != self.length or len(b_counts) != self.length:
                raise ConfigurationError(
                    f"row {row}: expected {self.length} operands per side, "
                    f"got {len(a_slots)}/{len(b_counts)}"
                )
        return [
            self.run_counts(a_slots, b_counts)
            for a_slots, b_counts in zip(a_slot_rows, b_count_rows)
        ]

    def run_epochs(
        self,
        a_slot_frames: Sequence[Sequence[int]],
        b_count_frames: Sequence[Sequence[int]],
    ) -> List[int]:
        """Wave-pipelined operation: one dot product per epoch, back to back.

        The multipliers re-arm at every epoch boundary and the counting
        network's balancers carry their toggle state across epochs, exactly
        as the hardware would.  Returns the output count per epoch window.
        """
        if len(a_slot_frames) != len(b_count_frames):
            raise ConfigurationError(
                f"frame counts differ: {len(a_slot_frames)} vs {len(b_count_frames)}"
            )
        n_max = self.epoch.n_max
        duration = self.epoch.duration_fs
        sim = Simulator(self.circuit, trace=self.trace)
        sim.reset()
        for frame, (a_slots, b_counts) in enumerate(
            zip(a_slot_frames, b_count_frames)
        ):
            if len(a_slots) != self.length or len(b_counts) != self.length:
                raise ConfigurationError(
                    f"frame {frame}: expected {self.length} operands per side"
                )
            base = frame * duration
            for lane in range(self.length):
                self.block.drive(sim, f"epoch{lane}", base)
                self.block.drive(
                    sim,
                    f"b{lane}",
                    [
                        base + SETUP_FS + t
                        for t in self.streams.times_for_count(b_counts[lane])
                    ],
                )
                if a_slots[lane] < n_max:
                    self.block.drive(
                        sim,
                        f"a{lane}",
                        base + SETUP_FS + self.epoch.slot_time(a_slots[lane]),
                    )
        sim.run()
        # Output pulses of frame i land at a fixed datapath offset past the
        # stream times (NDRO read + one balancer delay per tree level).
        from repro.models import technology as tech

        levels = self.length.bit_length() - 1
        offset = SETUP_FS + tech.T_NDRO_FS + levels * tech.T_BALANCER_OUT_FS
        return [
            self.output.count(i * duration + offset - 1, (i + 1) * duration + offset - 1)
            for i in range(len(a_slot_frames))
        ]


class DpuModel:
    """Functional DPU (unipolar or bipolar) with exact cascade semantics."""

    def __init__(self, epoch: EpochSpec, length: int, bipolar: bool = False):
        self.epoch = epoch
        self.length = _check_length(length)
        self.bipolar = bipolar
        self.streams = PulseStreamCodec(epoch)
        self.race = RaceLogicCodec(epoch)

    @property
    def jj_count(self) -> int:
        return dpu_compute_jj(self.length, self.bipolar)

    # -- scalar API --------------------------------------------------------
    def output_count(self, a_slots: Sequence[int], b_counts: Sequence[int]) -> int:
        """Output pulse count for explicit operand encodings."""
        if len(a_slots) != self.length or len(b_counts) != self.length:
            raise ConfigurationError(
                f"expected {self.length} operands per side, got "
                f"{len(a_slots)}/{len(b_counts)}"
            )
        n_max = self.epoch.n_max
        product = bipolar_product_count if self.bipolar else unipolar_product_count
        counts = [
            product(b_counts[i], a_slots[i], n_max) for i in range(self.length)
        ]
        return counting_network_output_count(counts)

    def dot(self, a_values: Sequence[float], b_values: Sequence[float]) -> float:
        """Dot product of value lists: returns ``sum(a*b) / L`` (decoded in
        the active polarity's domain, with unary quantisation)."""
        if self.bipolar:
            slots = [self.race.slot_for_bipolar(v) for v in a_values]
            counts = [self.streams.count_for_bipolar(v) for v in b_values]
            count = self.output_count(slots, counts)
            return 2.0 * count / self.epoch.n_max - 1.0
        slots = [self.race.slot_for_unipolar(v) for v in a_values]
        counts = [self.streams.count_for_unipolar(v) for v in b_values]
        count = self.output_count(slots, counts)
        return count / self.epoch.n_max

    # -- vectorised API (used by the FIR) -----------------------------------
    def output_counts_batch(
        self, a_slots: np.ndarray, b_counts: np.ndarray
    ) -> np.ndarray:
        """Output counts for a batch: arrays shaped (n_samples, L)."""
        import numpy as np

        a_slots = np.asarray(a_slots, dtype=np.int64)
        b_counts = np.asarray(b_counts, dtype=np.int64)
        if a_slots.shape != b_counts.shape or a_slots.shape[-1] != self.length:
            raise ConfigurationError(
                f"batch shapes must match and end in L={self.length}; got "
                f"{a_slots.shape} and {b_counts.shape}"
            )
        n_max = self.epoch.n_max
        top = -((-b_counts * a_slots) // n_max)  # ceil(b * a / n_max)
        if self.bipolar:
            counts = top + (n_max - a_slots) - (b_counts - top)
        else:
            counts = top
        # Ceil-cascade across the lane axis.
        while counts.shape[-1] > 1:
            counts = (counts[..., 0::2] + counts[..., 1::2] + 1) // 2
        return counts[..., 0]


__all__ = [
    "DotProductUnit",
    "DpuModel",
    "build_dpu",
    "dpu_compute_jj",
]
