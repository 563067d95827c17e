"""repro.shard.partition: plan shape, determinism, NoC-circuit legality."""

import json

import pytest

from repro.cells.interconnect import Jtl
from repro.core.pnm import BurstPnm
from repro.errors import ConfigurationError, NetlistError
from repro.lint.blocks import SHIPPED_BLOCKS, build_shipped_block
from repro.pulsesim import Circuit
from repro.pulsesim.export import import_netlist, netlist_description
from repro.shard.partition import (
    LinkSpec,
    ShardPlan,
    build_noc_circuit,
    build_noc_description,
    plan_partition,
    shard_description,
)
from tests.shard.fabric import WIDE_LINK, wide_fabric


def _pnm():
    built = build_shipped_block("pnm")
    for element, port in built.observed_outputs:
        built.circuit.probe(element, port)
    return built


def _plan(num_shards=2, link=None):
    built = _pnm()
    return built, plan_partition(
        built.circuit, num_shards, link=link, entry_points=built.entry_points
    )


def test_single_shard_plan_has_no_cuts():
    built, plan = _plan(num_shards=1)
    assert plan.num_shards == 1
    assert plan.cuts == []
    assert plan.lookahead_fs is None
    assert set(plan.assignment.values()) == {0}
    assert len(plan.assignment) == len(built.circuit.elements)


def test_plan_covers_every_cell_with_nonempty_balanced_shards():
    built, plan = _plan(num_shards=3)
    assert sorted(plan.assignment) == sorted(
        element.name for element in built.circuit.elements
    )
    for shard in range(3):
        assert plan.cells_of(shard)
    # Weight balance: no shard hoards more than ~1.5x its fair JJ share.
    total = sum(plan.jj_by_shard)
    assert max(plan.jj_by_shard) <= total / 3 * 1.5 + max(
        max(1, element.jj_count) for element in built.circuit.elements
    )


def test_cuts_carry_positive_lookahead_and_traffic_bounds():
    _built, plan = _plan(num_shards=2)
    assert plan.cuts
    assert plan.lookahead_fs is not None and plan.lookahead_fs > 0
    for cut in plan.cuts:
        assert cut.source_shard != cut.sink_shard
        assert cut.hops >= 1
        assert cut.traffic_hi >= 0
        assert plan.link.min_latency_fs(cut.hops) + cut.delay_fs >= plan.lookahead_fs


def test_planning_is_deterministic():
    _b1, first = _plan(num_shards=4)
    _b2, second = _plan(num_shards=4)
    assert first.to_json() == second.to_json()


def test_plan_json_round_trip():
    _built, plan = _plan(num_shards=2, link=LinkSpec(fifo_depth=16))
    restored = ShardPlan.from_json(json.loads(plan.dumps()))
    assert restored.to_json() == plan.to_json()
    assert restored.link.fifo_depth == 16
    assert restored.lookahead_fs == plan.lookahead_fs


def test_custom_link_spec_moves_the_lookahead():
    _slow_built, slow = _plan(num_shards=2)
    _fast_built, fast = _plan(
        num_shards=2, link=LinkSpec(serialization_fs=1, hop_latency_fs=1)
    )
    assert fast.lookahead_fs < slow.lookahead_fs


@pytest.mark.parametrize(
    "field, value",
    [("serialization_fs", 0), ("serialization_fs", -5), ("hop_latency_fs", -1),
     ("fifo_depth", 0)],
)
def test_link_spec_takes_the_noc_link_bounds(field, value):
    with pytest.raises(ConfigurationError, match=field):
        LinkSpec(**{field: value})
    # An archived plan carrying such a link is refused on load, too.
    _built, plan = _plan(num_shards=2)
    document = json.loads(plan.dumps())
    document["link"][field] = value
    with pytest.raises(ConfigurationError, match=field):
        ShardPlan.from_json(document)


def test_link_spec_edge_values_are_legal():
    link = LinkSpec(serialization_fs=1, hop_latency_fs=0, fifo_depth=1)
    _built, plan = _plan(num_shards=2, link=link)
    assert plan.lookahead_fs is not None and plan.lookahead_fs > 0


@pytest.mark.parametrize("bad", [0, -1, 12])  # pnm has 11 cells
def test_invalid_shard_counts_are_rejected(bad):
    built = _pnm()
    with pytest.raises(ConfigurationError):
        plan_partition(built.circuit, bad)


def _planned(name, num_shards):
    """A shipped block (outputs probed) or perfbench's wide fabric, cut."""
    if name == "wide-fabric":
        circuit, heads = wide_fabric()
        entries = [(head, "a") for head in heads]
        return circuit, plan_partition(
            circuit, num_shards, link=WIDE_LINK, entry_points=entries
        )
    built = build_shipped_block(name)
    for element, port in built.observed_outputs:
        if not built.circuit._taps.get((id(element), port)):
            built.circuit.probe(element, port)
    return built.circuit, plan_partition(
        built.circuit, num_shards, entry_points=built.entry_points
    )


def test_noc_description_is_canonical_and_importable():
    for name in sorted(SHIPPED_BLOCKS) + ["wide-fabric"]:
        for num_shards in (2, 3):  # every shipped block has >= 3 cells
            circuit, plan = _planned(name, num_shards)
            description = build_noc_description(circuit, plan)
            # Built directly, it is the export of the materialised NoC
            # circuit, down to key order.
            exported = netlist_description(build_noc_circuit(circuit, plan))
            assert description == exported, (name, num_shards)
            assert json.dumps(description) == json.dumps(exported)
            # Canonical: importing and re-exporting is byte-stable.
            reimported = netlist_description(import_netlist(description))
            assert reimported == description, (name, num_shards)
            kinds = [cell["type"] for cell in description["cells"]]
            assert kinds.count("NocLink") == len(plan.cuts)


class _Counter:
    """A probe that counts pulses: not a recorder a worker can rebuild."""

    label = "count"

    def __init__(self):
        self.seen = 0

    def record(self, time):
        self.seen += 1


def test_noc_description_refuses_what_a_worker_could_not_rebuild():
    circuit = Circuit("custom")
    pnm = circuit.add(BurstPnm("pnm", count=3, bits=2))
    tail = circuit.add(Jtl("tail"))
    circuit.connect(pnm, "out", tail, "a")
    # BurstPnm is no cell type import_netlist knows.
    with pytest.raises(NetlistError, match="'pnm'"):
        build_noc_description(circuit, plan_partition(circuit, 2))
    circuit = Circuit("probed")
    head = circuit.add(Jtl("head"))
    tail = circuit.add(Jtl("tail"))
    circuit.connect(head, "q", tail, "a")
    circuit.probe(tail, "q", probe=_Counter())
    with pytest.raises(NetlistError, match="recorder"):
        build_noc_description(circuit, plan_partition(circuit, 2))


def test_noc_circuit_inserts_links_on_every_cut():
    built, plan = _plan(num_shards=2)
    circuit = build_noc_circuit(built.circuit, plan)
    for cut in plan.cuts:
        link = circuit[cut.link]
        assert type(link).__name__ == "NocLink"
        assert link.delay == plan.link.min_latency_fs(cut.hops)
    # Probes survive the transform.
    original = {
        tap.probe.label for taps in built.circuit._taps.values() for tap in taps
    }
    carried = {tap.probe.label for taps in circuit._taps.values() for tap in taps}
    assert carried == original


def test_shard_descriptions_tile_the_noc_circuit():
    built, plan = _plan(num_shards=3)
    description = build_noc_description(built.circuit, plan)
    names = []
    wires = 0
    for shard in range(plan.num_shards):
        piece = shard_description(description, plan, shard)
        names.extend(cell["name"] for cell in piece["cells"])
        wires += len(piece["wires"])
        assert piece["name"].endswith(f"/shard{shard}")
        circuit = import_netlist(piece)  # every piece is itself legal
        assert len(circuit.elements) == len(piece["cells"])
    assert sorted(names) == sorted(cell["name"] for cell in description["cells"])
    # Exactly the cut-crossing wires are absent from the union of pieces
    # (each cut contributes its link's far-side wire).
    assert wires == len(description["wires"]) - len(plan.cuts)


def test_shard_description_resolves_the_longest_planned_cell_name():
    """With cells ``a`` and ``a.b`` both planned, ``a.b.c`` names port ``c``
    of ``a.b``, so its wire and probe follow ``a.b`` to shard 1."""
    plan = ShardPlan("dotted", 2, {"a": 0, "a.b": 1}, [])
    description = {
        "name": "dotted",
        "cells": [{"name": "a", "jj_count": 2}, {"name": "a.b", "jj_count": 2}],
        "wires": [{"from": "a.b.c", "to": "a.b.d", "delay_fs": 0}],
        "probes": [{"port": "a.b.c", "type": "PulseRecorder", "label": ""}],
    }
    assert shard_description(description, plan, 0)["wires"] == []
    piece = shard_description(description, plan, 1)
    assert piece["wires"] == description["wires"]
    assert piece["probes"] == description["probes"]
    with pytest.raises(ConfigurationError, match="planned cell"):
        shard_description(
            dict(description, wires=[{"from": "z.q", "to": "a.b.d"}]), plan, 0
        )
