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
  used inside counting networks, DPUs, and FIRs.  It and the routing
  unit below are one timed transition table each, built by
  :func:`_routing_rows`, so every kernel runs them inline.
* :func:`build_structural_balancer` — the paper's two-circuit netlist:
  a :class:`BffRoutingUnit` (the B-flip-flop of Fig 6e with its input
  splitters and output mergers, A -> S1/R2, B -> S2/R1, C1 = Q1 merge !Q1,
  C2 = Q2 merge !Q2) generating control pulses that read a DFF2-based
  output stage (Fig 6b).  It reproduces the Fig 7 waveforms.
"""

from __future__ import annotations

from typing import Optional

from repro.cells.interconnect import Merger, Splitter
from repro.cells.storage import Dff2
from repro.models import technology as tech
from repro.pulsesim.block import Block
from repro.pulsesim.element import PortSpec, TableCell
from repro.pulsesim.netlist import Circuit

#: JJ budget of the balancer block used by the area models: BFF routing unit
#: (BFF + splitters + mergers, 28 JJs) + DFF2 output stage (28 JJs).  This is
#: the calibration that makes the processing element's total land on the 126
#: JJs the paper states (see DESIGN.md section 5).
BALANCER_JJ = 56

#: JJ split between the two sub-circuits of the structural balancer.
ROUTING_UNIT_JJ = 28
OUTPUT_STAGE_JJ = BALANCER_JJ - ROUTING_UNIT_JJ


def _routing_rows(port: str, steer) -> tuple:
    """One input port's rows of the routing Mealy machine (Fig 6c).

    State ``toggle + 2 * last_port_was_b + 4 * pair_open``; guard bit 0
    is the coincidence window, bit 1 the t_BFF transition.  A pulse is
    steered to ``steer[toggle]`` and flips the toggle, except for:

    * case (ii), the second pulse of a simultaneous pair (inside the
      coincidence window, on the other port, pair still open): it still
      takes ``steer[toggle]``, completing the double toggle, and closes
      the pair;
    * case (iii), a pulse inside t_BFF otherwise: the control logic
      ignores it, so it exits through its predecessor's output
      ``steer[toggle ^ 1]`` without toggling, and is counted as a hazard.
    """
    on_b = int(port == "b") << 1
    rows = []
    for bits in range(4):
        for state in range(8):
            toggle = state & 1
            if bits & 1 and state & 4 and (state & 2) != on_b:  # case (ii)
                rows.append((toggle ^ 1 | on_b, (steer[toggle],)))
            elif bits & 2:  # case (iii)
                rows.append((toggle | on_b, (steer[toggle ^ 1],), 1))
            else:
                rows.append((toggle ^ 1 | on_b | 4, (steer[toggle],)))
    return tuple(rows)


class _RoutingCell(TableCell):
    """The routing Mealy machine as a timed table, on inputs ``a``/``b``.

    * ``coincidence_fs`` — pulses on *different* inputs at most this far
      apart are simultaneous: one pulse exits each output and the
      internal state is net-unchanged (Fig 7, the pair at ~7 ps).
    * ``t_bff_fs`` — a pulse arriving later than the coincidence window but
      before the flip-flop finished its transition is ignored by the
      control logic and is steered to the same output as the previous
      pulse without toggling (:attr:`hazard_events` counts these).
    """

    INPUTS = (PortSpec("a"), PortSpec("b"))
    GUARDS = ("_pair_bound", "t_bff_fs")
    COUNTER = "hazard_events"

    def __init__(
        self,
        name: str,
        delay: Optional[int] = None,
        t_bff_fs: int = tech.T_BFF_FS,
        coincidence_fs: int = 2_000,
    ):
        super().__init__(name, delay)
        self.t_bff_fs = t_bff_fs
        self.coincidence_fs = coincidence_fs
        self._pair_bound = coincidence_fs + 1


class Balancer(_RoutingCell):
    """Behavioural 2:2 balancer: ports ``a``/``b`` in, ``y1``/``y2`` out."""

    OUTPUTS = ("y1", "y2")
    jj_count = BALANCER_JJ
    DEFAULT_DELAY = tech.T_BALANCER_OUT_FS
    TRANSITIONS = {port: _routing_rows(port, ("y1", "y2")) for port in "ab"}


class BffRoutingUnit(_RoutingCell):
    """The balancer's routing unit (Fig 6f): BFF + splitters + mergers.

    Implements the Mealy machine with *per-input* control outputs so the
    output stage can read the DFF2 holding the matching token:

    * ``c1_a``/``c2_a`` — control pulses caused by input ``a`` (state 0/1),
    * ``c1_b``/``c2_b`` — control pulses caused by input ``b``.
    """

    OUTPUTS = ("c1_a", "c2_a", "c1_b", "c2_b")
    jj_count = ROUTING_UNIT_JJ
    DEFAULT_DELAY = tech.T_DFF_FS
    TRANSITIONS = {
        port: _routing_rows(port, (f"c1_{port}", f"c2_{port}")) for port in "ab"
    }


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
