"""Netlist partitioning into fabric shards joined by temporal NoC links.

The partitioner is a deterministic min-cut-ish heuristic:

1. **levelize** — order cells by a cycle-tolerant Kahn traversal so wire
   locality in the netlist becomes locality in the order;
2. **chunk** — split the order into K contiguous, JJ-area-balanced
   groups (every shard non-empty);
3. **refine** — one boundary-improvement pass moves individual cells to
   a neighbouring shard when that strictly lowers the total traffic
   crossing the cut (weights are :mod:`repro.analyze` pulse-count upper
   bounds, so the heuristic prefers cutting provably quiet wires) while
   keeping shards non-empty and area within tolerance.

The resulting :class:`ShardPlan` is pure data (JSON round-trippable):
which cell lives on which shard, which wires are cut, the NoC link
inserted on each cut, and the conservative-sync lookahead — the minimum
over cut wires of ``link minimum latency + wire delay``, every term of
which is proven positive at construction (the same ``element.delay +
wire.delay > 0`` argument behind the sealed kernel's monotonic fast
path).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import (
    AbstractSet,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.models import technology as tech
from repro.pulsesim.element import Element
from repro.pulsesim.export import import_netlist, netlist_description
from repro.pulsesim.netlist import Circuit, Wire

#: Stand-in weight for wires whose static pulse bound is unbounded.
_INF_TRAFFIC = 1_000_000


@dataclass(frozen=True)
class LinkSpec:
    """NoC link parameters applied to every cut wire.

    ``hops`` per link is the shard distance ``abs(src_shard -
    sink_shard)`` (shards laid out as a linear tile chain), so the spec
    only fixes the per-hop and per-flit constants.
    """

    serialization_fs: int = tech.T_NOC_SERIALIZATION_FS
    hop_latency_fs: int = tech.T_NOC_HOP_FS
    fifo_depth: int = tech.NOC_FIFO_DEPTH

    def __post_init__(self) -> None:
        # NocLink's bounds, checked when a plan is made or loaded rather
        # than when a run first builds a link.
        for name, low in (
            ("serialization_fs", 1),
            ("hop_latency_fs", 0),
            ("fifo_depth", 1),
        ):
            value = getattr(self, name)
            if value < low:
                raise ConfigurationError(
                    f"NoC link {name} must be >= {low}, got {value}"
                )

    def min_latency_fs(self, hops: int) -> int:
        return self.serialization_fs + hops * self.hop_latency_fs


@dataclass(frozen=True)
class CutWire:
    """One wire replaced by a NoC link in the sharded system."""

    #: Index into the export-sorted wire list of the original circuit.
    wire_index: int
    #: Name of the inserted :class:`~repro.cells.noc.NocLink` cell.
    link: str
    source: str  #: ``"cell.port"`` driving the cut.
    sink: str  #: ``"cell.port"`` receiving across the cut.
    delay_fs: int  #: Original wire delay, kept on the link->sink wire.
    source_shard: int
    sink_shard: int
    hops: int  #: Shard distance the flit travels.
    #: Static upper bound on pulses crossing this cut (INF clamped).
    traffic_hi: int


@dataclass
class ShardPlan:
    """A complete K-way partition of one netlist."""

    circuit_name: str
    num_shards: int
    #: Cell name -> shard index (NoC links live on their source shard).
    assignment: Dict[str, int]
    cuts: List[CutWire]
    link: LinkSpec = field(default_factory=LinkSpec)
    #: JJ area per shard (original cells only, before link overhead).
    jj_by_shard: List[int] = field(default_factory=list)

    @property
    def lookahead_fs(self) -> Optional[int]:
        """Conservative-sync window: ``min(link latency + wire delay)``
        over all cuts, or ``None`` when nothing is cut (shards are
        independent and need no synchronization at all)."""
        if not self.cuts:
            return None
        return min(
            self.link.min_latency_fs(cut.hops) + cut.delay_fs
            for cut in self.cuts
        )

    @property
    def cut_traffic_hi(self) -> int:
        """Total static pulse-count bound over every cut wire."""
        return sum(cut.traffic_hi for cut in self.cuts)

    def cells_of(self, shard: int) -> List[str]:
        return sorted(
            name for name, owner in self.assignment.items() if owner == shard
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "circuit": self.circuit_name,
            "num_shards": self.num_shards,
            "assignment": dict(sorted(self.assignment.items())),
            "cuts": [asdict(cut) for cut in self.cuts],
            "link": asdict(self.link),
            "jj_by_shard": list(self.jj_by_shard),
            "lookahead_fs": self.lookahead_fs,
            "cut_traffic_hi": self.cut_traffic_hi,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ShardPlan":
        return cls(
            circuit_name=data["circuit"],
            num_shards=data["num_shards"],
            assignment=dict(data["assignment"]),
            cuts=[CutWire(**cut) for cut in data["cuts"]],
            link=LinkSpec(**data["link"]),
            jj_by_shard=list(data.get("jj_by_shard", [])),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"


# -- ordering ------------------------------------------------------------------
def _levelize(circuit: Circuit) -> List[Element]:
    """Cycle-tolerant Kahn order, deterministic for a given circuit.

    Ready cells are taken in insertion order; cells still blocked when
    the ready set drains (feedback loops) follow in insertion order.
    """
    order: List[Element] = []
    indegree: Dict[int, int] = {id(e): 0 for e in circuit.elements}
    for wire in circuit.iter_wires():
        if wire.source is not wire.sink:
            indegree[id(wire.sink)] += 1
    placed: Set[int] = set()
    remaining = list(circuit.elements)
    while remaining:
        ready = [e for e in remaining if indegree[id(e)] == 0]
        if not ready:
            ready = [remaining[0]]  # break the cycle deterministically
        for element in ready:
            order.append(element)
            placed.add(id(element))
        remaining = [e for e in remaining if id(e) not in placed]
        for element in ready:
            for port in element.output_names:
                for wire in circuit.fanout(element, port):
                    if id(wire.sink) not in placed:
                        indegree[id(wire.sink)] = max(
                            0, indegree[id(wire.sink)] - 1
                        )
    return order


def _chunk(order: Sequence[Element], num_shards: int) -> Dict[str, int]:
    """Contiguous JJ-balanced chunks; every shard gets >= 1 cell."""
    weights = [max(1, element.jj_count) for element in order]
    total = sum(weights)
    assignment: Dict[str, int] = {}
    index = 0
    remaining_weight = total
    for shard in range(num_shards):
        shards_left = num_shards - shard
        target = remaining_weight / shards_left
        chunk_weight = 0
        # Must leave at least one cell per remaining shard.
        max_index = len(order) - (shards_left - 1)
        start = index
        while index < max_index:
            if index > start and chunk_weight + weights[index] / 2 > target:
                break
            chunk_weight += weights[index]
            assignment[order[index].name] = shard
            index += 1
        remaining_weight -= chunk_weight
    return assignment


# -- traffic weights -----------------------------------------------------------
def _default_entries(circuit: Circuit) -> List[Tuple[Element, str]]:
    """Every input port with no fan-in: the externally driven surface."""
    return [
        (element, port)
        for element in circuit.elements
        for port in element.input_names
        if not circuit.wires_into(element, port)
    ]


def _traffic_weights(
    circuit: Circuit,
    entry_points: Optional[Sequence[Tuple[Element, str]]],
) -> Dict[Tuple[int, str], int]:
    """Static pulse-count upper bound per output port (uniform on failure)."""
    from repro.analyze import analyze_circuit
    from repro.analyze.domain import INF

    entries = (
        list(entry_points) if entry_points else _default_entries(circuit)
    )
    weights: Dict[Tuple[int, str], int] = {}
    try:
        analysis = analyze_circuit(circuit, entry_points=entries)
    except Exception:
        # Analysis is a heuristic input here, never a correctness input:
        # an unanalyzable circuit just gets uniform cut weights.
        return weights
    for element in circuit.elements:
        for port in element.output_names:
            bound = analysis.output_bounds(element, port)
            n_hi = bound.n_hi
            weights[(id(element), port)] = (
                _INF_TRAFFIC if n_hi >= INF else max(1, n_hi)
            )
    return weights


def _wire_weight(
    wire: Wire, weights: Mapping[Tuple[int, str], int]
) -> int:
    return weights.get((id(wire.source), wire.source_port), 1)


def _refine(
    circuit: Circuit,
    assignment: Dict[str, int],
    weights: Mapping[Tuple[int, str], int],
    num_shards: int,
) -> None:
    """One KL-lite pass: move single cells across the cut when that
    strictly reduces crossing traffic (non-emptiness and a loose area
    balance are preserved)."""
    jj_by_shard = [0] * num_shards
    members = [0] * num_shards
    for element in circuit.elements:
        shard = assignment[element.name]
        jj_by_shard[shard] += max(1, element.jj_count)
        members[shard] += 1
    total = sum(jj_by_shard)
    limit = (total / num_shards) * 1.5 + 1

    def local_cost(element: Element) -> int:
        cost = 0
        for port in element.output_names:
            for wire in circuit.fanout(element, port):
                if assignment[wire.source.name] != assignment[wire.sink.name]:
                    cost += _wire_weight(wire, weights)
        for port in element.input_names:
            for wire in circuit.wires_into(element, port):
                if wire.source is element:
                    continue  # self-loop counted once above
                if assignment[wire.source.name] != assignment[wire.sink.name]:
                    cost += _wire_weight(wire, weights)
        return cost

    for element in circuit.elements:
        home = assignment[element.name]
        if members[home] <= 1:
            continue
        neighbours: Set[int] = set()
        for port in element.output_names:
            for wire in circuit.fanout(element, port):
                neighbours.add(assignment[wire.sink.name])
        for port in element.input_names:
            for wire in circuit.wires_into(element, port):
                neighbours.add(assignment[wire.source.name])
        neighbours.discard(home)
        weight = max(1, element.jj_count)
        best_shard, best_cost = home, local_cost(element)
        for shard in sorted(neighbours):
            if jj_by_shard[shard] + weight > limit:
                continue
            assignment[element.name] = shard
            cost = local_cost(element)
            assignment[element.name] = home
            if cost < best_cost:
                best_shard, best_cost = shard, cost
        if best_shard != home:
            assignment[element.name] = best_shard
            members[home] -= 1
            members[best_shard] += 1
            jj_by_shard[home] -= weight
            jj_by_shard[best_shard] += weight


# -- the planner ---------------------------------------------------------------
def _sorted_wire_list(circuit: Circuit) -> List[Wire]:
    """The export-canonical wire order (same key as netlist export)."""
    wires = list(circuit.iter_wires())
    wires.sort(
        key=lambda w: (
            w.source.name, w.source_port, w.sink.name, w.sink_port, w.delay
        )
    )
    return wires


def _fresh_name(base: str, taken: AbstractSet[str]) -> str:
    name = base
    while name in taken:
        name = "_" + name
    return name


def plan_partition(
    circuit: Circuit,
    num_shards: int,
    link: Optional[LinkSpec] = None,
    entry_points: Optional[Sequence[Tuple[Element, str]]] = None,
) -> ShardPlan:
    """Cut ``circuit`` into ``num_shards`` fabric shards.

    ``entry_points`` feeds the :mod:`repro.analyze` traffic estimate
    (defaults to every undriven input port); analysis failures degrade
    to uniform cut weights, never to an error.  Raises
    :class:`~repro.errors.ConfigurationError` when the shard count does
    not fit the circuit.
    """
    link = link if link is not None else LinkSpec()
    cells = len(circuit.elements)
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > cells:
        raise ConfigurationError(
            f"cannot cut {cells} cell(s) into {num_shards} shards; "
            "every shard needs at least one cell"
        )
    weights = (
        _traffic_weights(circuit, entry_points) if num_shards > 1 else {}
    )
    order = _levelize(circuit)
    assignment = _chunk(order, num_shards)
    if num_shards > 1:
        _refine(circuit, assignment, weights, num_shards)

    cuts: List[CutWire] = []
    taken = set(circuit._names)
    for index, wire in enumerate(_sorted_wire_list(circuit)):
        source_shard = assignment[wire.source.name]
        sink_shard = assignment[wire.sink.name]
        if source_shard == sink_shard:
            continue
        name = _fresh_name(f"noc{len(cuts)}", taken)
        taken.add(name)
        cuts.append(
            CutWire(
                wire_index=index,
                link=name,
                source=f"{wire.source.name}.{wire.source_port}",
                sink=f"{wire.sink.name}.{wire.sink_port}",
                delay_fs=wire.delay,
                source_shard=source_shard,
                sink_shard=sink_shard,
                hops=abs(source_shard - sink_shard),
                traffic_hi=_wire_weight(wire, weights),
            )
        )
    jj_by_shard = [0] * num_shards
    for element in circuit.elements:
        jj_by_shard[assignment[element.name]] += element.jj_count
    return ShardPlan(
        circuit_name=circuit.name,
        num_shards=num_shards,
        assignment=assignment,
        cuts=cuts,
        link=link,
        jj_by_shard=jj_by_shard,
    )


# -- materialization -----------------------------------------------------------
def _raw_noc_description(circuit: Circuit, plan: ShardPlan) -> Dict[str, Any]:
    """NoC-augmented description before canonicalisation (import input)."""
    description = netlist_description(circuit)
    by_index = {cut.wire_index: cut for cut in plan.cuts}
    if len(by_index) != len(plan.cuts):
        raise ConfigurationError("plan contains duplicate cut wire indices")
    out_of_range = [i for i in by_index if not 0 <= i < len(description["wires"])]
    if out_of_range:
        raise ConfigurationError(
            f"plan cuts wires {sorted(out_of_range)} beyond the circuit's "
            f"{len(description['wires'])} wires"
        )
    wires: List[Dict[str, Any]] = []
    for index, wire in enumerate(description["wires"]):
        cut = by_index.get(index)
        if cut is None:
            wires.append(wire)
            continue
        if wire["from"] != cut.source or wire["to"] != cut.sink:
            raise ConfigurationError(
                f"plan does not match circuit {circuit.name!r}: cut "
                f"{cut.link} expects wire {cut.source} -> {cut.sink} at "
                f"index {cut.wire_index}, found "
                f"{wire['from']} -> {wire['to']}"
            )
        wires.append({"from": cut.source, "to": f"{cut.link}.a",
                      "delay_fs": 0})
        wires.append({"from": f"{cut.link}.q", "to": cut.sink,
                      "delay_fs": cut.delay_fs})
    cells = list(description["cells"])
    for cut in plan.cuts:
        cells.append(
            {
                "name": cut.link,
                "type": "NocLink",
                "jj_count": 0,  # recomputed by the constructor on import
                "inputs": ["a"],
                "outputs": ["q"],
                "params": {
                    "serialization_fs": plan.link.serialization_fs,
                    "hops": cut.hops,
                    "hop_latency_fs": plan.link.hop_latency_fs,
                    "fifo_depth": plan.link.fifo_depth,
                },
            }
        )
    description["cells"] = cells
    description["wires"] = wires
    return description


def build_noc_circuit(circuit: Circuit, plan: ShardPlan) -> Circuit:
    """Materialize the plan as a runnable NoC-augmented circuit.

    Every cut wire ``src.p -> dst.q`` becomes ``src.p -> link.a`` (zero
    delay), a :class:`~repro.cells.noc.NocLink` cell on the cut's source
    shard, and ``link.q -> dst.q`` carrying the original wire delay.
    """
    return import_netlist(_raw_noc_description(circuit, plan))


def build_noc_description(circuit: Circuit, plan: ShardPlan) -> Dict[str, Any]:
    """The NoC-augmented netlist as a canonical exported description.

    Produced by re-exporting the materialised circuit, so ordering and
    totals are exactly :func:`~repro.pulsesim.export.netlist_description`
    canonical (byte-stable under re-import).
    """
    return netlist_description(build_noc_circuit(circuit, plan))


def shard_description(
    noc_description: Mapping[str, Any], plan: ShardPlan, shard: int
) -> Dict[str, Any]:
    """One shard's slice of the NoC-augmented description.

    The slice keeps every cell assigned to ``shard`` (NoC links live on
    their cut's *source* shard), every wire internal to the shard, and
    every probe on a shard cell.  Cross-shard wires (``link.q -> sink``)
    are omitted — the shard engine carries those pulses between kernels.
    """
    if not 0 <= shard < plan.num_shards:
        raise ConfigurationError(
            f"shard index {shard} out of range for a "
            f"{plan.num_shards}-way plan"
        )
    owners = dict(plan.assignment)
    for cut in plan.cuts:
        owners[cut.link] = cut.source_shard
    mine = {name for name, owner in owners.items() if owner == shard}

    def cell_name(endpoint: str) -> str:
        known = sorted(owners, key=len, reverse=True)
        for name in known:
            if endpoint.startswith(name + "."):
                return name
        raise ConfigurationError(
            f"endpoint {endpoint!r} does not name a planned cell"
        )

    cells = [c for c in noc_description["cells"] if c["name"] in mine]
    wires = [
        w
        for w in noc_description["wires"]
        if cell_name(w["from"]) in mine and cell_name(w["to"]) in mine
    ]
    probes = [
        p for p in noc_description["probes"] if cell_name(p["port"]) in mine
    ]
    return {
        "name": f"{noc_description['name']}/shard{shard}",
        "cells": cells,
        "wires": wires,
        "probes": probes,
        "cell_count": len(cells),
        "wire_count": len(wires),
        "probe_count": len(probes),
        "jj_count": sum(c["jj_count"] for c in cells),
    }
