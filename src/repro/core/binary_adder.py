"""A gate-level binary RSFQ ripple-carry adder (the baseline, as circuits).

The evaluation's binary baselines are published designs (Table 2 fits);
this module additionally *implements* a binary adder from the clocked
Boolean cells so unary-vs-binary comparisons can run structurally, and so
the paper's architectural complaint is measurable: in the binary datapath
**every logic cell needs a clock pulse every cycle**, so the clock
distribution tree (a splitter per clocked cell, section 1's "expensive
clock trees") ships with the design.

Each bit slice is a two-phase full adder:

* phase 1 clocks ``p = a XOR b`` and ``g = a AND b``,
* phase 2 (after the previous slice's carry settles) clocks
  ``sum = p XOR c_in``, ``t = p AND c_in``,
* phase 3 clocks ``c_out = g OR t``.

Carries ripple, so the clock phases stagger bit by bit — the latency
grows linearly with width, as the bit-parallel entries of Table 2 do.
"""

from __future__ import annotations

from typing import List

from repro.cells.clocked import ClockedAnd, ClockedOr, ClockedXor
from repro.cells.interconnect import Splitter
from repro.errors import ConfigurationError
from repro.models import technology as tech
from repro.pulsesim.block import Block
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.simulator import Simulator

#: Clock-phase spacing inside a bit slice and between slices.
PHASE_FS = 10 * tech.T_DFF_FS


class _BitSlice:
    """One full-adder slice with named cells and clock hooks."""

    def __init__(self, block: Block, index: int):
        circuit = block.circuit
        prefix = block.subname(f"bit{index}")
        self.xor_pg = block.add(ClockedXor(f"{prefix}.xor_pg"))
        self.and_pg = block.add(ClockedAnd(f"{prefix}.and_pg"))
        self.split_p = block.add(Splitter(f"{prefix}.split_p", delay=0))
        self.xor_sum = block.add(ClockedXor(f"{prefix}.xor_sum"))
        self.and_t = block.add(ClockedAnd(f"{prefix}.and_t"))
        self.or_cout = block.add(ClockedOr(f"{prefix}.or_cout"))

        circuit.connect(self.xor_pg, "q", self.split_p, "a")
        circuit.connect(self.split_p, "q1", self.xor_sum, "a")
        circuit.connect(self.split_p, "q2", self.and_t, "a")
        circuit.connect(self.and_pg, "q", self.or_cout, "a")
        circuit.connect(self.and_t, "q", self.or_cout, "b")

    @property
    def clocked_cells(self):
        return (self.xor_pg, self.and_pg, self.xor_sum, self.and_t, self.or_cout)


class RippleCarryAdder:
    """A ``bits``-wide gate-level binary adder on the pulse simulator.

    :meth:`add` drives operand pulses (bit set = pulse present), the
    staggered clock schedule, and decodes the sum from the per-bit sum
    probes.
    """

    def __init__(self, bits: int):
        if not 1 <= bits <= 16:
            raise ConfigurationError(f"bits must be in [1, 16], got {bits}")
        self.bits = bits
        self.circuit = Circuit(f"binary_adder_{bits}")
        self.block = Block(self.circuit, "rca")
        self.slices: List[_BitSlice] = [
            _BitSlice(self.block, i) for i in range(bits)
        ]
        for index, (low, high) in enumerate(zip(self.slices, self.slices[1:])):
            # carry out feeds the next slice's c_in latches.
            split = self.block.add(
                Splitter(self.block.subname(f"carry_fan_{index}"), delay=0)
            )
            self.circuit.connect(low.or_cout, "q", split, "a")
            self.circuit.connect(split, "q1", high.xor_sum, "b")
            self.circuit.connect(split, "q2", high.and_t, "b")
        self.sum_probes = [
            self.circuit.probe(s.xor_sum, "q") for s in self.slices
        ]
        self.carry_probe = self.circuit.probe(self.slices[-1].or_cout, "q")
        self.circuit.seal()

    @property
    def jj_count(self) -> int:
        return self.block.jj_count

    @property
    def clocked_cell_count(self) -> int:
        """Cells needing a clock pulse each cycle (drives the clock tree)."""
        return 5 * self.bits

    @property
    def clock_tree_jj(self) -> int:
        """Splitter tree fanning one clock to every clocked cell."""
        return (self.clocked_cell_count - 1) * tech.JJ_SPLITTER

    def latency_fs(self) -> int:
        """Time from inputs to the last carry pulse."""
        return (2 * self.bits + 2) * PHASE_FS + tech.T_DFF_FS

    def add(self, x: int, y: int, carry_in: int = 0) -> int:
        """Compute ``x + y + carry_in`` (mod 2**(bits+1)) at pulse level."""
        limit = 1 << self.bits
        for operand in (x, y):
            if not 0 <= operand < limit:
                raise ConfigurationError(
                    f"operands must fit in {self.bits} bits, got {operand}"
                )
        if carry_in not in (0, 1):
            raise ConfigurationError(f"carry_in must be 0 or 1, got {carry_in}")

        sim = Simulator(self.circuit)
        sim.reset()
        for i, bit_slice in enumerate(self.slices):
            # Slices stagger by two phases so slice i's carry (clocked at
            # base + 2 phases) settles before slice i+1 evaluates its sum
            # (at base + 3 phases).
            base = (2 * i + 1) * PHASE_FS
            # Operand pulses into the phase-1 latches.
            if (x >> i) & 1:
                sim.schedule_input(bit_slice.xor_pg, "a", 0)
                sim.schedule_input(bit_slice.and_pg, "a", 0)
            if (y >> i) & 1:
                sim.schedule_input(bit_slice.xor_pg, "b", 0)
                sim.schedule_input(bit_slice.and_pg, "b", 0)
            # Three staggered clock phases per slice.
            sim.schedule_input(bit_slice.xor_pg, "clk", base)
            sim.schedule_input(bit_slice.and_pg, "clk", base)
            sim.schedule_input(bit_slice.xor_sum, "clk", base + PHASE_FS)
            sim.schedule_input(bit_slice.and_t, "clk", base + PHASE_FS)
            sim.schedule_input(bit_slice.or_cout, "clk", base + 2 * PHASE_FS)
        if carry_in:
            sim.schedule_input(self.slices[0].xor_sum, "b", 0)
            sim.schedule_input(self.slices[0].and_t, "b", 0)
        sim.run()

        total = 0
        for i, probe in enumerate(self.sum_probes):
            if probe.count():
                total |= 1 << i
        if self.carry_probe.count():
            total |= 1 << self.bits
        return total
