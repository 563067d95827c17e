"""U-SFQ multipliers (paper section 4.1, Figs 3 and 4).

The multiplier crosses the two unary encodings: the pulse-stream operand A
feeds an NDRO's non-destructive read port, and the Race-Logic operand B
resets the NDRO when its pulse arrives — so exactly the stream pulses in
slots *before* B's slot pass through.  What remains is the product
``p_A * p_B``, still a pulse stream.

* Unipolar (Fig 3c left): one NDRO; epoch-start sets, RL resets, stream
  reads.
* Bipolar (Fig 3c right): the stochastic-computing XNOR. The top NDRO
  passes ``A`` before B arrives, the bottom NDRO passes ``not A`` after,
  and a merger combines them: ``OUT = (A and B) or (not A and not B)``,
  which multiplies in the bipolar domain.

Functional pulse-count models with the same quantisation semantics are
provided for fast sweeps and cross-validation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cells.interconnect import Jtl, Merger, Splitter
from repro.cells.logic import Inverter
from repro.cells.storage import Ndro
from repro.encoding.epoch import EpochSpec
from repro.encoding.pulsestream import PulseStreamCodec
from repro.encoding.racelogic import RaceLogicCodec
from repro.errors import ConfigurationError
from repro.models import technology as tech
from repro.pulsesim.block import Block
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.simulator import Simulator

#: JJ budgets used by the area models.  The bipolar multiplier is the
#: headline 46-JJ block (2 NDROs + inverter + merger + splitters + JTL),
#: which reproduces the paper's 25-200x (vs wave-pipelined) and 370x (vs
#: the 17 kJJ bit-parallel [37]) area-savings anchors.
MULTIPLIER_UNIPOLAR_JJ = 16  # NDRO + splitter + JTL
MULTIPLIER_BIPOLAR_JJ = 46
MULTIPLIER_JJ = MULTIPLIER_BIPOLAR_JJ

#: Offset between the epoch-start marker and time slot 0.  The marker must
#: arm the NDROs *before* the first slot so that a Race-Logic operand of 0
#: (reset in slot 0) blocks the whole stream.
SETUP_FS = tech.T_SPLITTER_FS * 2


# -- functional models ---------------------------------------------------------
def unipolar_product_count(
    n_a: int,
    slot_b: int,
    n_max: int,
    ticks: Optional[Sequence[int]] = None,
) -> int:
    """Pulses surviving the RL filter: stream ticks in slots < ``slot_b``.

    For the default floor-uniform stream (tick_k = floor(k * n_max / n_a))
    this equals ``ceil(n_a * slot_b / n_max)`` — the quantised product.
    An explicit tick pattern (e.g. a PNM readout) may be supplied.
    """
    _check_operands(n_a, slot_b, n_max)
    if ticks is not None:
        return sum(1 for t in ticks if t < slot_b)
    if n_a == 0:
        return 0
    return -((-n_a * slot_b) // n_max)  # ceil(n_a * slot_b / n_max)


def bipolar_product_count(
    n_a: int,
    slot_b: int,
    n_max: int,
    ticks: Optional[Sequence[int]] = None,
) -> int:
    """Output count of the XNOR-style bipolar multiplier.

    ``pass_top`` counts A's pulses before B;  ``pass_bottom`` counts the
    complement stream's pulses at/after B.  Decoded bipolar, the result is
    the product of the operands' bipolar values (up to quantisation).
    """
    _check_operands(n_a, slot_b, n_max)
    if ticks is None:
        pass_top = unipolar_product_count(n_a, slot_b, n_max)
    else:
        pass_top = sum(1 for t in ticks if t < slot_b)
    # Complement stream has (n_max - n_a) pulses; those at/after slot_b pass.
    # Slots >= slot_b total (n_max - slot_b); of those, (n_a - pass_top)
    # belong to A, the rest to the complement.
    pass_bottom = (n_max - slot_b) - (n_a - pass_top)
    return pass_top + pass_bottom


def _check_operands(n_a: int, slot_b: int, n_max: int) -> None:
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    if not 0 <= n_a <= n_max:
        raise ConfigurationError(f"stream count must be in [0, {n_max}], got {n_a}")
    if not 0 <= slot_b <= n_max:
        raise ConfigurationError(f"RL slot must be in [0, {n_max}], got {slot_b}")


# -- structural builders -------------------------------------------------------
def build_unipolar_multiplier(circuit: Circuit, name: str) -> Block:
    """One-NDRO unipolar multiplier (Fig 3c left).

    Exposed ports: inputs ``a`` (pulse stream), ``b`` (Race Logic),
    ``epoch`` (epoch-start marker); output ``out``.
    """
    block = Block(circuit, name)
    ndro = block.add(Ndro(block.subname("ndro")))
    jtl = block.add(Jtl(block.subname("jtl")))
    splitter = block.add(Splitter(block.subname("split_e")))

    # The splitter fans the epoch marker so composite blocks (e.g. the
    # bipolar multiplier or a PE) can reuse it; the spare leg ends in a JTL.
    circuit.connect(splitter, "q1", ndro, "set")
    circuit.connect(splitter, "q2", jtl, "a")

    block.expose_input("a", ndro, "clk")
    block.expose_input("b", ndro, "reset")
    block.expose_input("epoch", splitter, "a")
    block.expose_output("out", ndro, "q")
    return block


def build_bipolar_multiplier(circuit: Circuit, name: str) -> Block:
    """Two-NDRO + inverter bipolar multiplier (Fig 3c right).

    Exposed ports: inputs ``a`` (stream), ``b`` (RL), ``epoch``, and
    ``refclk`` (the maximum-rate reference the inverter needs to form
    ``not A``); output ``out``.
    """
    block = Block(circuit, name)
    split_a = block.add(Splitter(block.subname("split_a")))
    split_b = block.add(Splitter(block.subname("split_b")))
    split_e = block.add(Splitter(block.subname("split_e")))
    ref_jtl1 = block.add(Jtl(block.subname("ref_jtl1")))
    ref_jtl2 = block.add(Jtl(block.subname("ref_jtl2")))
    inverter = block.add(Inverter(block.subname("inv")))
    top = block.add(Ndro(block.subname("ndro_top")))
    # Path-balancing JTL: the complement branch is one inverter delay plus
    # one JTL longer than the direct branch; matching them keeps the two
    # pulse groups slot-aligned so downstream balancers see clean pairs
    # instead of t_BFF hazards.
    top_balance = block.add(
        Jtl(block.subname("top_balance"), delay=tech.T_INV_FS + tech.T_JTL_FS // 2)
    )
    bottom = block.add(Ndro(block.subname("ndro_bot")))
    merger = block.add(Merger(block.subname("merge_out")))

    # Stream A reads the top NDRO and feeds the inverter.
    circuit.connect(split_a, "q1", top, "clk")
    circuit.connect(split_a, "q2", inverter, "a")
    # The reference clock is delayed two JTLs so, within a slot, the data
    # pulse reaches the inverter before the clock samples it.
    circuit.connect(ref_jtl1, "q", ref_jtl2, "a")
    circuit.connect(ref_jtl2, "q", inverter, "clk")
    circuit.connect(inverter, "q", bottom, "clk")
    # RL operand B: resets the top (blocks A from its slot on), sets the
    # bottom (passes the complement from its slot on).
    circuit.connect(split_b, "q1", top, "reset")
    circuit.connect(split_b, "q2", bottom, "set")
    # Epoch marker: arms the top, clears the bottom.
    circuit.connect(split_e, "q1", top, "set")
    circuit.connect(split_e, "q2", bottom, "reset")
    # Combine both branches (the top through its path-balancing JTL).
    circuit.connect(top, "q", top_balance, "a")
    circuit.connect(top_balance, "q", merger, "a")
    circuit.connect(bottom, "q", merger, "b")

    block.expose_input("a", split_a, "a")
    block.expose_input("b", split_b, "a")
    block.expose_input("epoch", split_e, "a")
    block.expose_input("refclk", ref_jtl1, "a")
    block.expose_output("out", merger, "q")
    return block


# -- convenience wrappers ------------------------------------------------------
class UnipolarMultiplier:
    """A self-contained unipolar multiplier with encode/run/decode helpers.

    The netlist is fully built here, so the constructor seals it — every
    ``run_counts`` reuses the compiled kernel tables.
    """

    jj_count = MULTIPLIER_UNIPOLAR_JJ

    def __init__(self, epoch: EpochSpec, trace=None):
        self.epoch = epoch
        #: Optional :class:`repro.trace.TraceSession` passed to every
        #: simulator this wrapper builds (attach taps separately).
        self.trace = trace
        self.streams = PulseStreamCodec(epoch)
        self.race = RaceLogicCodec(epoch)
        self.circuit = Circuit("unipolar_multiplier")
        self.block = build_unipolar_multiplier(self.circuit, "mul")
        self.output = self.block.probe_output("out")
        self.circuit.seal()

    def run_counts(self, n_a: int, slot_b: int) -> int:
        """Multiply a pulse count by an RL slot; returns the output count."""
        sim = Simulator(self.circuit, trace=self.trace)
        sim.reset()
        self.block.drive(sim, "epoch", 0)
        self.block.drive(
            sim, "a", [t + SETUP_FS for t in self.streams.times_for_count(n_a)]
        )
        if slot_b < self.epoch.n_max:
            self.block.drive(sim, "b", SETUP_FS + self.epoch.slot_time(slot_b))
        sim.run()
        return self.output.count()

    def multiply(self, a_value: float, b_value: float) -> float:
        """Multiply two unipolar values; returns the decoded product."""
        n_a = self.streams.count_for_unipolar(a_value)
        slot_b = self.race.slot_for_unipolar(b_value)
        return self.run_counts(n_a, slot_b) / self.epoch.n_max


class BipolarMultiplier:
    """A self-contained bipolar multiplier with encode/run/decode helpers."""

    jj_count = MULTIPLIER_BIPOLAR_JJ

    def __init__(self, epoch: EpochSpec, trace=None):
        self.epoch = epoch
        #: Optional :class:`repro.trace.TraceSession` passed to every
        #: simulator this wrapper builds (attach taps separately).
        self.trace = trace
        self.streams = PulseStreamCodec(epoch)
        self.race = RaceLogicCodec(epoch)
        self.circuit = Circuit("bipolar_multiplier")
        self.block = build_bipolar_multiplier(self.circuit, "mul")
        self.output = self.block.probe_output("out")
        self.circuit.seal()

    def run_counts(self, n_a: int, slot_b: int) -> int:
        """Multiply a stream count by an RL slot; returns the output count."""
        sim = Simulator(self.circuit, trace=self.trace)
        sim.reset()
        self.block.drive(sim, "epoch", 0)
        self.block.drive(
            sim, "a", [t + SETUP_FS for t in self.streams.times_for_count(n_a)]
        )
        self.block.drive(
            sim,
            "refclk",
            [t + SETUP_FS for t in self.streams.times_for_count(self.epoch.n_max)],
        )
        if slot_b < self.epoch.n_max:
            self.block.drive(sim, "b", SETUP_FS + self.epoch.slot_time(slot_b))
        sim.run()
        return self.output.count()

    def multiply(self, a_value: float, b_value: float) -> float:
        """Multiply two bipolar values; returns the decoded bipolar product."""
        n_a = self.streams.count_for_bipolar(a_value)
        slot_b = self.race.slot_for_bipolar(b_value)
        count = self.run_counts(n_a, slot_b)
        return 2.0 * count / self.epoch.n_max - 1.0
