"""A fully structural U-SFQ FIR running on the pulse simulator.

This is the integration piece that exercises *every* substrate at pulse
level, epoch after epoch (Fig 17 mapped to the paper's blocks):

* input samples arrive as Race-Logic pulses, one per epoch;
* the tapped delay line is a chain of interleaved-buffer memory cells
  (:class:`~repro.core.buffer.RlMemoryCell`), delaying each sample by one
  epoch per tap;
* coefficients live in the NDRO :class:`~repro.core.membank.CoefficientBank`
  and are read out every epoch as TFF2-chain PNM pulse streams;
* each tap is a single-NDRO unipolar multiplier;
* tap products are summed by a balancer counting network, and the output
  stream's per-epoch pulse count is the filter output.

Configurations are intentionally small (the paper's own WRspice testbench
is a "small DPU netlist"); the vectorised :class:`~repro.core.fir.UnaryFirFilter`
covers evaluation-scale sweeps.  :meth:`StructuralUnaryFir.reference_counts`
computes the exact expected counts so tests can assert pulse-for-pulse
agreement.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cells.interconnect import Splitter
from repro.core.buffer import RlMemoryCell
from repro.core.counting import build_counting_network
from repro.core.membank import CoefficientBank
from repro.core.multiplier import SETUP_FS, build_unipolar_multiplier
from repro.core.pnm import pnm_pass_counts
from repro.encoding.epoch import EpochSpec
from repro.errors import ConfigurationError
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.simulator import Simulator


class StructuralUnaryFir:
    """A taps-wide unipolar FIR netlist with per-epoch streaming operation.

    Args:
        epoch: Epoch geometry (keep ``bits`` <= 6 for tractable runs).
        coefficient_words: Unsigned coefficient words, one per tap
            (tap ``k`` multiplies ``x[n - k]``).  The tap count must be a
            power of two between 2 and 8.
    """

    MAX_BITS = 6
    MAX_TAPS = 8

    def __init__(
        self,
        epoch: EpochSpec,
        coefficient_words: Sequence[int],
    ):
        taps = len(coefficient_words)
        if taps < 2 or taps & (taps - 1) or taps > self.MAX_TAPS:
            raise ConfigurationError(
                f"taps must be a power of two in [2, {self.MAX_TAPS}], got {taps}"
            )
        if epoch.bits > self.MAX_BITS:
            raise ConfigurationError(
                f"structural FIR supports bits <= {self.MAX_BITS}, got {epoch.bits}"
            )
        self.epoch = epoch
        self.taps = taps
        self.bank = CoefficientBank(epoch, taps)
        self.bank.write_all(list(coefficient_words))

        self.circuit = Circuit(f"structural_fir_{taps}")
        self.network = build_counting_network(self.circuit, "cn", taps)
        self.output = self.network.probe_output("y")

        # Per-tap multiplier wired into the counting network.
        self.multipliers = []
        for k in range(taps):
            mult = build_unipolar_multiplier(self.circuit, f"tap{k}")
            src, src_port = mult.output("out")
            dst, dst_port = self.network.input(f"a{k}")
            self.circuit.connect(src, src_port, dst, dst_port)
            self.multipliers.append(mult)

        # Tapped delay line: x -> [tap0], memcell -> [tap1], memcell -> ...
        self.delay_cells: List[RlMemoryCell] = []
        self.taps_in: List = []  # (element, port) receiving each tap's RL pulse
        previous_source = None
        for k in range(taps):
            b_element, b_port = self.multipliers[k].input("b")
            if k == 0:
                self.taps_in.append((b_element, b_port))
                continue
            memcell = self.circuit.add(
                RlMemoryCell(f"delay{k}", epoch.duration_fs)
            )
            splitter = self.circuit.add(Splitter(f"fan{k}", delay=0))
            self.circuit.connect(memcell, "out", splitter, "a")
            self.circuit.connect(splitter, "q1", b_element, b_port)
            if previous_source is not None:
                prev_splitter = previous_source
                self.circuit.connect(prev_splitter, "q2", memcell, "in")
            self.delay_cells.append(memcell)
            previous_source = splitter
        # Feed the head of the delay line and tap 0 from the same input.
        self._head = self.circuit.add(Splitter("head", delay=0))
        self.circuit.connect(self._head, "q1", *self.taps_in[0])
        if self.delay_cells:
            self.circuit.connect(self._head, "q2", self.delay_cells[0], "in")
        self.circuit.seal()

    @property
    def jj_count(self) -> int:
        """Structural JJ total (cells actually instantiated)."""
        return self.circuit.jj_count + self.bank.jj_count

    def process_slots(self, slots: Sequence[int]) -> List[int]:
        """Stream Race-Logic samples through the filter, one per epoch.

        Returns the output pulse count observed in each epoch window.
        """
        n_max = self.epoch.n_max
        for slot in slots:
            if not 0 <= slot <= n_max:
                raise ConfigurationError(
                    f"slots must be in [0, {n_max}], got {slot}"
                )
        sim = Simulator(self.circuit)
        sim.reset()
        duration = self.epoch.duration_fs
        for index, slot in enumerate(slots):
            base = index * duration
            # Arm every multiplier at the epoch start.
            for mult in self.multipliers:
                element, port = mult.input("epoch")
                sim.schedule_input(element, port, base)
            # The sample enters the delay line (slot == n_max -> no pulse,
            # encoding the value 1.0 which never resets the NDROs).
            if slot < n_max:
                sim.schedule_input(
                    self._head, "a", base + SETUP_FS + slot * self.epoch.slot_fs
                )
            # Coefficient streams from the bank, one per tap, every epoch.
            for k in range(self.taps):
                element, port = self.multipliers[k].input("a")
                for t in self.bank.stream_times(k):
                    sim.schedule_input(element, port, base + SETUP_FS + t)
        sim.run()
        # Every output pulse of epoch i lands at exactly
        #   i*T + SETUP + slot*s + (NDRO delay + levels * balancer delay),
        # so windows offset by that fixed datapath delay partition the
        # output stream cleanly between epochs.
        from repro.models import technology as tech

        levels = self.taps.bit_length() - 1
        datapath = tech.T_NDRO_FS + levels * tech.T_BALANCER_OUT_FS
        offset = SETUP_FS + datapath
        return [
            self.output.count(i * duration + offset - 1, (i + 1) * duration + offset - 1)
            for i in range(len(slots))
        ]

    def reference_counts(self, slots: Sequence[int]) -> List[int]:
        """Exact expected per-epoch counts (PNM filtering + stateful cascade).

        Balancer toggles persist across epochs, so a node whose state is 1
        at an epoch boundary sends that epoch's *floor* half to Y1 instead
        of the ceiling — the model tracks every node's state exactly as the
        netlist does.
        """
        n_max = self.epoch.n_max
        levels = self.taps.bit_length() - 1
        # One state per balancer, level by level (0 -> next pulse exits Y1).
        states = [[0] * (self.taps >> (level + 1)) for level in range(levels)]
        outputs = []
        for index in range(len(slots)):
            counts = []
            for k in range(self.taps):
                word = self.bank.read(k)
                if index - k < 0:
                    # Before the sample reaches tap k its multiplier's NDRO
                    # is armed each epoch but never reset, passing the whole
                    # coefficient stream (the x = 1.0 convention).
                    counts.append(word)
                    continue
                slot = slots[index - k]
                if slot >= n_max:
                    counts.append(word)
                else:
                    counts.append(int(pnm_pass_counts(word, slot, self.epoch.bits)))
            for level in range(levels):
                next_counts = []
                for node in range(len(counts) // 2):
                    total = counts[2 * node] + counts[2 * node + 1]
                    state = states[level][node]
                    # State 0: Y1 takes the ceiling; state 1: the floor.
                    next_counts.append((total + (1 - state)) // 2)
                    states[level][node] = state ^ (total & 1)
                counts = next_counts
            outputs.append(counts[0])
        return outputs
