"""The pulse-stream balancer (paper section 4.2-B, Figs 6 and 7).

A balancer is a 2:2 toggle router: it alternately steers incoming pulses to
its two outputs, so each output carries ``(N_A + N_B) / 2`` pulses.  Unlike
a merger it *survives collisions*: two simultaneous input pulses produce
one pulse at each output.

Two implementations are provided:

* :class:`Balancer` — a behavioural cell implementing the routing-unit
  Mealy machine (Fig 6c) including the t_BFF transition hazard the paper
  analyses in section 5.4.1 (a pulse landing while the B-flip-flop is mid
  transition is ignored by the control logic and exits through the *same*
  output as its predecessor, slowly biasing the split).  This is the cell
  used inside counting networks, DPUs, and FIRs.
* :func:`build_structural_balancer` — the paper's two-circuit netlist:
  a :class:`BffRoutingUnit` (the B-flip-flop of Fig 6e with its input
  splitters and output mergers, A -> S1/R2, B -> S2/R1, C1 = Q1 merge !Q1,
  C2 = Q2 merge !Q2) generating control pulses that read a DFF2-based
  output stage (Fig 6b).  It reproduces the Fig 7 waveforms.
"""

from __future__ import annotations

from repro.cells.interconnect import Merger, Splitter
from repro.cells.storage import Dff2
from repro.models import technology as tech
from repro.pulsesim.block import Block
from repro.pulsesim.element import Element, PortSpec
from repro.pulsesim.netlist import Circuit

#: JJ budget of the balancer block used by the area models: BFF routing unit
#: (BFF + splitters + mergers, 28 JJs) + DFF2 output stage (28 JJs).  This is
#: the calibration that makes the processing element's total land on the 126
#: JJs the paper states (see DESIGN.md section 5).
BALANCER_JJ = 56

#: JJ split between the two sub-circuits of the structural balancer.
ROUTING_UNIT_JJ = 28
OUTPUT_STAGE_JJ = BALANCER_JJ - ROUTING_UNIT_JJ


class _MealyRouter:
    """Shared implementation of the balancer Mealy machine (Fig 6c).

    Decides, for each input pulse, which control/output index (0 -> C1/Y1,
    1 -> C2/Y2) it is steered to, handling the simultaneous-pair case and
    the t_BFF transition hazard.  Returns the chosen index.
    """

    def __init__(self, t_bff_fs: int, coincidence_fs: int):
        self.t_bff_fs = t_bff_fs
        self.coincidence_fs = coincidence_fs
        self.state = 0
        self.hazard_events = 0
        self._last_time = None
        self._last_port = None
        self._last_index = None
        self._pair_open = False

    def route(self, port: str, time: int) -> int:
        if self._last_time is not None:
            gap = time - self._last_time
            if (
                gap <= self.coincidence_fs
                and port != self._last_port
                and self._pair_open
            ):
                # Second pulse of a simultaneous pair: complementary output,
                # completing the double toggle (net state unchanged).
                index = self.state
                self.state ^= 1
                self._pair_open = False
                self._remember(port, time, index)
                return index
            if gap < self.t_bff_fs:
                # Transition hazard (case iii): the control logic ignores
                # the pulse; the output stage releases it through the same
                # port as its predecessor and the state does not toggle.
                self.hazard_events += 1
                self._pair_open = False
                self._remember(port, time, self._last_index)
                return self._last_index
        index = self.state
        self.state ^= 1
        self._pair_open = True
        self._remember(port, time, index)
        return index

    def _remember(self, port, time, index):
        self._last_time = time
        self._last_port = port
        self._last_index = index

    def reset(self):
        self.state = 0
        self.hazard_events = 0
        self._last_time = None
        self._last_port = None
        self._last_index = None
        self._pair_open = False


class Balancer(Element):
    """Behavioural 2:2 balancer with coincidence and transition-hazard model.

    Ports ``a``/``b`` in, ``y1``/``y2`` out.  Timing parameters:

    * ``coincidence_fs`` — pulses on *different* inputs closer than this are
      simultaneous: one pulse exits each output and the internal state is
      net-unchanged (Fig 7, the pair at ~7 ps).
    * ``t_bff_fs`` — a pulse arriving later than the coincidence window but
      before the flip-flop finished its transition is ignored by the
      control logic and is steered to the same output as the previous
      pulse without toggling (:attr:`hazard_events` counts these).
    """

    INPUTS = (PortSpec("a"), PortSpec("b"))
    OUTPUTS = ("y1", "y2")
    jj_count = BALANCER_JJ

    def __init__(
        self,
        name: str,
        delay: int = tech.T_BALANCER_OUT_FS,
        t_bff_fs: int = tech.T_BFF_FS,
        coincidence_fs: int = 2_000,
    ):
        super().__init__(name)
        self.delay = delay
        self._router = _MealyRouter(t_bff_fs, coincidence_fs)

    @property
    def state(self) -> int:
        return self._router.state

    @property
    def hazard_events(self) -> int:
        return self._router.hazard_events

    @property
    def t_bff_fs(self) -> int:
        """Constructor parameter, readable for ``params()`` replay."""
        return self._router.t_bff_fs

    @property
    def coincidence_fs(self) -> int:
        """Constructor parameter, readable for ``params()`` replay."""
        return self._router.coincidence_fs

    def handle(self, sim, port, time):
        index = self._router.route(port, time)
        self.emit(sim, ("y1", "y2")[index], time + self.delay)

    def reset(self):
        self._router.reset()


class BffRoutingUnit(Element):
    """The balancer's routing unit (Fig 6f): BFF + splitters + mergers.

    Implements the Mealy machine with *per-input* control outputs so the
    output stage can read the DFF2 holding the matching token:

    * ``c1_a``/``c2_a`` — control pulses caused by input ``a`` (state 0/1),
    * ``c1_b``/``c2_b`` — control pulses caused by input ``b``.
    """

    INPUTS = (PortSpec("a"), PortSpec("b"))
    OUTPUTS = ("c1_a", "c2_a", "c1_b", "c2_b")
    jj_count = ROUTING_UNIT_JJ

    def __init__(
        self,
        name: str,
        delay: int = tech.T_DFF_FS,
        t_bff_fs: int = tech.T_BFF_FS,
        coincidence_fs: int = 2_000,
    ):
        super().__init__(name)
        self.delay = delay
        self._router = _MealyRouter(t_bff_fs, coincidence_fs)

    @property
    def hazard_events(self) -> int:
        return self._router.hazard_events

    @property
    def t_bff_fs(self) -> int:
        """Constructor parameter, readable for ``params()`` replay."""
        return self._router.t_bff_fs

    @property
    def coincidence_fs(self) -> int:
        """Constructor parameter, readable for ``params()`` replay."""
        return self._router.coincidence_fs

    def handle(self, sim, port, time):
        index = self._router.route(port, time)
        output = f"c{index + 1}_{port}"
        self.emit(sim, output, time + self.delay)

    def reset(self):
        self._router.reset()


def build_structural_balancer(circuit: Circuit, name: str) -> Block:
    """Assemble the paper's balancer netlist (Fig 6b/6f) as a block.

    Exposed ports: inputs ``a``, ``b``; outputs ``y1``, ``y2``.

    Each input fans (through a splitter) to its output-stage DFF2 data port
    and to the routing unit; the routing unit's control pulses read the
    matching DFF2 through its C1/C2 ports, and the DFF2s' Y1/Y2 readouts
    merge into the balancer outputs.
    """
    block = Block(circuit, name)

    split_a = block.add(Splitter(block.subname("split_a")))
    split_b = block.add(Splitter(block.subname("split_b")))
    routing = block.add(BffRoutingUnit(block.subname("routing")))
    dff2_a = block.add(Dff2(block.subname("dff2_a")))
    dff2_b = block.add(Dff2(block.subname("dff2_b")))
    merge_y1 = block.add(Merger(block.subname("merge_y1")))
    merge_y2 = block.add(Merger(block.subname("merge_y2")))

    # Inputs park a token in their DFF2 and notify the routing unit.
    circuit.connect(split_a, "q1", dff2_a, "a")
    circuit.connect(split_a, "q2", routing, "a")
    circuit.connect(split_b, "q1", dff2_b, "a")
    circuit.connect(split_b, "q2", routing, "b")
    # Controls read the DFF2 that holds the token of the causing input.
    circuit.connect(routing, "c1_a", dff2_a, "c1")
    circuit.connect(routing, "c2_a", dff2_a, "c2")
    circuit.connect(routing, "c1_b", dff2_b, "c1")
    circuit.connect(routing, "c2_b", dff2_b, "c2")
    # Output merges.
    circuit.connect(dff2_a, "y1", merge_y1, "a")
    circuit.connect(dff2_b, "y1", merge_y1, "b")
    circuit.connect(dff2_a, "y2", merge_y2, "a")
    circuit.connect(dff2_b, "y2", merge_y2, "b")

    block.expose_input("a", split_a, "a")
    block.expose_input("b", split_b, "a")
    block.expose_output("y1", merge_y1, "q")
    block.expose_output("y2", merge_y2, "q")
    return block
