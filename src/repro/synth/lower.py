"""Lowering: primitive dataflow graph → balanced, lint-clean netlist.

Cell-name namespaces (provably collision-free because user node ids may
not contain ``__`` and the id ``epoch`` is reserved):

* ``in_<prim_id>``   — entry JTL per literal (stimulus lands on its ``a``)
* ``in_epoch``       — entry JTL for the shared epoch-start marker
* ``epoch__s<i>``    — splitter chain distributing the epoch marker
* ``n_<prim_id>.*``  — cells of a multiplier block (``.ndro`` etc.)
* ``n_<prim_id>__m<i>`` / ``__s<i>`` — fold mergers / fanout splitters
* ``pad<N>``         — JTL pad cells (``"jtl"`` padding mode only)

Timing discipline (clock-follow-data):

Every stream edge carries ``(lat, spread)``: the pulse for logical slot
``j`` arrives in ``[lat + j*slot, lat + j*slot + spread]``.  RL edges
carry a single pulse at ``lat + value*slot``.  Multipliers align their
NDRO phase ladder at an anchor ``L*``: epoch sets at ``L* - 2*margin``
(after the block's internal splitter), the RL operand resets at
``L* - margin + b*slot``, and stream ticks read at ``L* + j*slot`` — so
slot ``b``'s tick is blocked and slot ``b-1``'s window clears the reset
by the margin.  Adder fan-in folds lanes left-to-right through mergers,
staggering each new lane one dead time past the accumulated window.
``delay`` nodes cost zero cells: they relabel the edge
(``lat -= slots*slot_fs``) so downstream padding absorbs the shift.

Under the slot-period floors computed in :mod:`repro.synth.balance`,
any two pulses meeting at a merger are at least one dead time apart
(valid runs lose no pulses); the analyzer's merger proof, which lint's
``merger-collision`` rule reports, checks the same spacing on the
single-wave arrivals.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.cells.interconnect import Jtl, Merger
from repro.core.multiplier import MULTIPLIER_UNIPOLAR_JJ, build_unipolar_multiplier
from repro.errors import SynthesisError
from repro.models import area, technology as tech
from repro.pulsesim.element import Element
from repro.pulsesim.export import netlist_description
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.probe import PulseRecorder
from repro.pulsesim.schedule import uniform_stream_times
from repro.pulsesim.simulator import Simulator
from repro.synth import builder
from repro.synth.balance import MARGIN_FS, Padder, choose_slot_fs, stream_spreads
from repro.synth.expand import PrimGraph
from repro.synth.refeval import OutputValue

FORMAT = "usfq-synth/1"


@dataclass(frozen=True)
class OutputPort:
    """Where one public output surfaces in the lowered netlist."""

    ref: str
    encoding: str
    probe_label: str
    latency_fs: int
    expected_level: int


@dataclass(frozen=True)
class SimOutcome:
    """Decoded results of one simulation of a compiled program."""

    levels: Dict[str, int]
    collisions: int
    events: int


@dataclass
class CompiledProgram:
    """A lowered spec: sealed circuit, stimulus schedule, decode plan."""

    name: str
    bits: int
    spec_doc: Dict[str, Any]
    spec_key: str
    circuit: Circuit
    slot_fs: int
    required_slot_fs: int
    entry_points: List[Tuple[Element, str]]
    stimulus: Dict[str, List[int]]
    outputs: List[OutputPort]
    probes: Dict[str, PulseRecorder]
    stats: Dict[str, int]

    @property
    def n_max(self) -> int:
        return 2 ** self.bits

    def simulate(self, kernel: Optional[str] = None) -> SimOutcome:
        """Run the stimulus schedule and decode every output."""
        sim = Simulator(self.circuit, kernel=kernel)
        sim.reset()
        by_name = {element.name: element for element in self.circuit.elements}
        for name, times in self.stimulus.items():
            sim.schedule_train(by_name[name], "a", times)
        run_stats = sim.run()
        levels: Dict[str, int] = {}
        for output in self.outputs:
            probe = self.probes[output.probe_label]
            if output.encoding == "stream":
                levels[output.ref] = probe.count()
            else:
                if len(probe.times) != 1:
                    raise SynthesisError(
                        f"RL output {output.ref!r} produced"
                        f" {len(probe.times)} pulses (expected exactly 1)"
                    )
                offset = probe.times[0] - output.latency_fs
                if offset % self.slot_fs:
                    raise SynthesisError(
                        f"RL output {output.ref!r} pulse is off-grid:"
                        f" {offset} fs past latency is not a multiple of"
                        f" the {self.slot_fs} fs slot"
                    )
                levels[output.ref] = offset // self.slot_fs
        collisions = sum(
            element.collisions
            for element in self.circuit.elements
            if isinstance(element, Merger)
        )
        return SimOutcome(
            levels=levels,
            collisions=collisions,
            events=run_stats.events_processed,
        )

    def to_json(self) -> str:
        """Deterministic, byte-stable JSON rendering of the compile."""
        doc = {
            "format": FORMAT,
            "spec": self.spec_doc,
            "spec_key": self.spec_key,
            "epoch": {
                "bits": self.bits,
                "n_max": self.n_max,
                "slot_fs": self.slot_fs,
                "required_slot_fs": self.required_slot_fs,
            },
            "netlist": netlist_description(self.circuit),
            "stimulus": {
                name: list(times)
                for name, times in sorted(self.stimulus.items())
            },
            "outputs": [
                {
                    "ref": output.ref,
                    "encoding": output.encoding,
                    "probe": output.probe_label,
                    "latency_fs": output.latency_fs,
                    "expected_level": output.expected_level,
                }
                for output in self.outputs
            ],
            "stats": dict(sorted(self.stats.items())),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass
class _Edge:
    """Consumer-side view of one produced value during lowering."""

    encoding: str
    spread: int
    legs: Deque[Tuple[Element, str, int]] = field(default_factory=deque)

    def take(self) -> Tuple[Element, str, int]:
        return self.legs.popleft()


def _consumer_counts(graph: PrimGraph) -> Dict[str, int]:
    counts: Dict[str, int] = {prim_id: 0 for prim_id in graph.nodes}
    for node in graph.nodes.values():
        for ref in node.args:
            counts[ref] += 1
    for _ref, prim_id in graph.outputs:
        counts[prim_id] += 1
    return counts


def lower_graph(
    graph: PrimGraph,
    expected: Dict[str, OutputValue],
    padding: str = "wire",
    optimized: bool = False,
    elided_jj: int = 0,
) -> CompiledProgram:
    """Lower a primitive graph into a sealed, balanced netlist.

    ``expected`` supplies the reference levels recorded per output (from
    the *unoptimized* graph, so optimizer bugs are observable).
    """
    spreads, required = stream_spreads(graph)
    slot = choose_slot_fs(graph)
    n_max = graph.n_max
    dead = tech.T_MERGER_DEAD_FS

    circuit = Circuit(graph.name)
    padder = Padder(circuit, mode=padding)
    counts = _consumer_counts(graph)
    edges: Dict[str, _Edge] = {}
    entry_points: List[Tuple[Element, str]] = []
    stimulus: Dict[str, List[int]] = {}
    spare_outputs: List[Tuple[Element, str]] = []
    cell_tally = {"mul": 0, "merger": 0, "splitter": 0, "entry": 0}

    def entry(name: str, times: List[int]) -> Element:
        jtl = circuit.add(Jtl(name))
        entry_points.append((jtl, "a"))
        stimulus[name] = times
        cell_tally["entry"] += 1
        return jtl

    def fan_out(prim_id: str, source: Element, port: str, lat: int) -> _Edge:
        """Build the fanout chain for a produced value; legs carry lats."""
        node = graph.nodes[prim_id]
        edge = _Edge(
            encoding=graph.node_encoding(prim_id),
            spread=spreads.get(prim_id, 0),
        )
        legs = builder.fanout_chain(
            circuit, f"n_{prim_id}", source, port, counts[prim_id]
        )
        cell_tally["splitter"] += builder.splitters_needed(1, counts[prim_id])
        for element, leg_port, depth in legs:
            edge.legs.append((element, leg_port, lat + depth * tech.T_SPLITTER_FS))
        edges[prim_id] = edge
        return edge

    # Shared epoch-start marker: one entry, one splitter chain, one leg
    # per multiplier (taken in topological order).
    mul_count = sum(1 for node in graph.nodes.values() if node.op == "mul")
    epoch_legs: Deque[Tuple[Element, str, int]] = deque()
    if mul_count:
        epoch_jtl = entry("in_epoch", [0])
        chain = builder.fanout_chain(circuit, "epoch", epoch_jtl, "q", mul_count)
        cell_tally["splitter"] += builder.splitters_needed(1, mul_count)
        for element, port, depth in chain:
            epoch_legs.append(
                (element, port, epoch_jtl.delay + depth * tech.T_SPLITTER_FS)
            )

    for node in graph.nodes.values():
        if node.op in ("sconst", "rconst"):
            if node.op == "sconst":
                times = uniform_stream_times(node.level, n_max, slot, start=0)
            else:
                times = [node.level * slot]
            jtl = entry(f"in_{node.id}", list(times))
            fan_out(node.id, jtl, "q", jtl.delay)
        elif node.op == "mul":
            s_el, s_port, s_lat = edges[node.args[0]].take()
            r_el, r_port, r_lat = edges[node.args[1]].take()
            e_el, e_port, e_lat = epoch_legs.popleft()
            block = build_unipolar_multiplier(circuit, f"n_{node.id}")
            cell_tally["mul"] += 1
            anchor = max(
                s_lat,
                r_lat + MARGIN_FS,
                e_lat + tech.T_SPLITTER_FS + 2 * MARGIN_FS,
            )
            a_el, a_port = block.input("a")
            b_el, b_port = block.input("b")
            ep_el, ep_port = block.input("epoch")
            padder.connect(s_el, s_port, a_el, a_port, anchor - s_lat)
            padder.connect(r_el, r_port, b_el, b_port, anchor - MARGIN_FS - r_lat)
            padder.connect(
                e_el, e_port, ep_el, ep_port,
                anchor - 2 * MARGIN_FS - tech.T_SPLITTER_FS - e_lat,
            )
            out_el, out_port = block.output("out")
            # The block's spare epoch leg (splitter q2 -> JTL) must be
            # observed to satisfy the dangling-output rule.
            for element in block.elements:
                if element.name.endswith(".jtl"):
                    spare_outputs.append((element, "q"))
            fan_out(node.id, out_el, out_port, anchor + out_el.delay)
        elif node.op == "add":
            lanes = [edges[ref].take() for ref in node.args]
            lane_spreads = [spreads[ref] for ref in node.args]
            acc_el, acc_port, acc_lat = lanes[0]
            acc_spread = lane_spreads[0]
            for index, (lane, lane_spread) in enumerate(
                zip(lanes[1:], lane_spreads[1:]), start=1
            ):
                lane_el, lane_port, lane_lat = lane
                merger = circuit.add(Merger(f"n_{node.id}__m{index}"))
                cell_tally["merger"] += 1
                anchor = max(acc_lat, lane_lat)
                padder.connect(acc_el, acc_port, merger, "a", anchor - acc_lat)
                padder.connect(
                    lane_el, lane_port, merger, "b",
                    anchor - lane_lat + acc_spread + dead,
                )
                acc_el, acc_port = merger, "q"
                acc_lat = anchor + merger.delay
                acc_spread = acc_spread + dead + lane_spread
            fan_out(node.id, acc_el, acc_port, acc_lat)
        elif node.op == "delay":
            parent = edges[node.args[0]]
            el, port, lat = parent.take()
            fan_out(node.id, el, port, lat - node.slots * slot)
        else:  # pragma: no cover - expand emits only PRIM_OPS
            raise AssertionError(f"unknown primitive op {node.op!r}")

    outputs: List[OutputPort] = []
    probes: Dict[str, PulseRecorder] = {}
    latency_fs = 0
    for ref, prim_id in graph.outputs:
        edge = edges[prim_id]
        element, port, lat = edge.take()
        label = f"out:{ref}"
        probe = circuit.probe(element, port, PulseRecorder(label))
        probes[label] = probe
        outputs.append(
            OutputPort(
                ref=ref,
                encoding=edge.encoding,
                probe_label=label,
                latency_fs=lat,
                expected_level=expected[ref].level,
            )
        )
        latency_fs = max(latency_fs, lat)

    for probe in builder.probe_unconsumed(circuit, spare_outputs, frozenset()):
        probes[probe.label] = probe

    leftovers = [prim_id for prim_id, edge in edges.items() if edge.legs]
    if leftovers:  # pragma: no cover - consumer counting is exact
        raise SynthesisError(f"unconsumed fanout legs for {leftovers}")

    circuit.seal()

    jj_estimate = (
        cell_tally["mul"] * MULTIPLIER_UNIPOLAR_JJ
        + cell_tally["merger"] * area.adder_unary_merger_jj()
        + cell_tally["splitter"] * tech.JJ_SPLITTER
        + (cell_tally["entry"] + padder.jtl_cells) * tech.JJ_JTL
    )
    stats = {
        "cells": len(circuit.elements),
        "jj": circuit.jj_count,
        "jj_estimate": jj_estimate,
        "elided_jj": elided_jj,
        "optimized": int(optimized),
        "multipliers": cell_tally["mul"],
        "mergers": cell_tally["merger"],
        "splitters": cell_tally["splitter"],
        "entries": cell_tally["entry"],
        "pad_jtls": padder.jtl_cells,
        "pads_fs": padder.total_fs,
        "slot_fs": slot,
        "required_slot_fs": required,
        "latency_fs": latency_fs,
        "epoch_fs": n_max * slot,
    }

    return CompiledProgram(
        name=graph.name,
        bits=graph.bits,
        spec_doc={},
        spec_key="",
        circuit=circuit,
        slot_fs=slot,
        required_slot_fs=required,
        entry_points=entry_points,
        stimulus=stimulus,
        outputs=outputs,
        probes=probes,
        stats=stats,
    )
