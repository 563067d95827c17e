"""Netlist export: JSON description, census, DOT, and re-import."""

import json

import pytest

from repro.cells import Dff, Jtl, Merger, Splitter, Tff
from repro.core.dpu import build_dpu
from repro.errors import NetlistError
from repro.lint.blocks import SHIPPED_BLOCKS, build_shipped_block
from repro.pulsesim import Circuit, Simulator, WaveformProbe
from repro.pulsesim.export import (
    cell_census,
    default_cell_registry,
    import_netlist,
    netlist_description,
    to_dot,
)


def _small_dpu():
    circuit = Circuit("small_dpu")
    build_dpu(circuit, "dpu", 4)
    return circuit


def test_description_is_json_serialisable():
    description = netlist_description(_small_dpu())
    encoded = json.dumps(description)
    decoded = json.loads(encoded)
    assert decoded["name"] == "small_dpu"
    assert decoded["cell_count"] == len(decoded["cells"])
    assert decoded["wire_count"] == len(decoded["wires"])


def test_description_totals_match_circuit():
    circuit = _small_dpu()
    description = netlist_description(circuit)
    assert description["jj_count"] == circuit.jj_count
    assert description["cell_count"] == len(circuit.elements)


def test_wires_reference_existing_cells():
    circuit = _small_dpu()
    description = netlist_description(circuit)
    names = {cell["name"] for cell in description["cells"]}
    for wire in description["wires"]:
        assert wire["from"].rsplit(".", 1)[0] in names
        assert wire["to"].rsplit(".", 1)[0] in names
        assert wire["delay_fs"] >= 0


def test_census_counts_cell_types():
    census = cell_census(_small_dpu())
    assert census["Ndro"] == 4        # one multiplier NDRO per lane
    assert census["Balancer"] == 3    # the 4:1 counting network


def test_dot_renders_every_cell_and_wire():
    circuit = _small_dpu()
    dot = to_dot(circuit)
    assert dot.startswith('digraph "small_dpu"')
    for element in circuit.elements:
        assert f'"{element.name}"' in dot
    assert dot.count("->") == netlist_description(circuit)["wire_count"]
    assert dot.rstrip().endswith("}")


def test_empty_circuit():
    circuit = Circuit("empty")
    description = netlist_description(circuit)
    assert description["cells"] == []
    assert "digraph" in to_dot(circuit)


def test_cells_and_wires_are_sorted_deterministically():
    description = netlist_description(_small_dpu())
    names = [cell["name"] for cell in description["cells"]]
    assert names == sorted(names)
    wire_keys = [(w["from"], w["to"], w["delay_fs"]) for w in description["wires"]]
    assert wire_keys == sorted(wire_keys)


def test_structurally_identical_circuits_export_identically():
    # Same structure, different construction order of the probe-free DPU:
    # the sorted export hides insertion order.
    first = json.dumps(netlist_description(_small_dpu()))
    second = json.dumps(netlist_description(_small_dpu()))
    assert first == second
    assert to_dot(_small_dpu()) == to_dot(_small_dpu())


def test_probes_appear_in_description_and_dot():
    circuit = _small_dpu()
    element = circuit.elements[0]
    port = element.output_names[0]
    circuit.probe(element, port)
    description = netlist_description(circuit)
    assert description["probe_count"] == 1
    entry = description["probes"][0]
    assert entry["port"] == f"{element.name}.{port}"
    assert entry["type"] == "PulseRecorder"
    assert entry["label"] == f"{element.name}.{port}"
    dot = to_dot(circuit)
    assert "style=dashed" in dot
    assert f'"{element.name}" -> "probe0"' in dot


def test_trace_taps_are_exported_as_probes():
    from repro.trace import TraceSession

    circuit = _small_dpu()
    session = TraceSession(circuit)
    description = netlist_description(circuit)
    assert description["probe_count"] == len(session.ports)
    assert all(p["type"] == "TracePort" for p in description["probes"])
    labels = [p["label"] for p in description["probes"]]
    assert labels == sorted(labels)


# -- import_netlist ------------------------------------------------------------
def _mixed_circuit():
    """Entry splitter fanning into a delayed JTL chain, a merger with a
    custom dead time, a DFF, and a toggle — plus two probe flavours."""
    circuit = Circuit("mixed")
    entry = circuit.add(Splitter("entry"))
    jtl = circuit.add(Jtl("jtl", delay=1_234))
    merger = circuit.add(Merger("m", delay=700, dead_time=4_000))
    dff = circuit.add(Dff("dff"))
    tff = circuit.add(Tff("t"))
    circuit.connect(entry, "q1", jtl, "a", delay=500)
    circuit.connect(entry, "q2", merger, "a")
    circuit.connect(jtl, "q", merger, "b", delay=250)
    circuit.connect(merger, "q", dff, "clk")
    circuit.connect(dff, "q", tff, "a")
    circuit.probe(dff, "q", probe=WaveformProbe("wave"))
    circuit.probe(tff, "q")
    return circuit, entry


def test_description_embeds_constructor_params():
    circuit, _entry = _mixed_circuit()
    description = netlist_description(circuit)
    by_name = {cell["name"]: cell for cell in description["cells"]}
    assert by_name["jtl"]["params"] == {"delay": 1_234}
    assert by_name["m"]["params"] == {"delay": 700, "dead_time": 4_000}


def test_import_round_trips_description():
    circuit, _entry = _mixed_circuit()
    description = netlist_description(circuit)
    rebuilt = import_netlist(description)
    assert netlist_description(rebuilt) == description
    # Twice over, for determinism of the rebuilt circuit itself.
    assert netlist_description(import_netlist(netlist_description(rebuilt))) \
        == description


@pytest.mark.parametrize("kernel", ["reference", "sealed"])
def test_imported_circuit_runs_identically(kernel):
    stimulus = [0, 0, 3_000, 3_000, 9_000, 20_000, 20_000]

    def run(circuit, entry):
        sim = Simulator(circuit, kernel=kernel)
        sim.schedule_train(entry, "a", stimulus)
        sim.run()
        return {
            tap.probe.label: list(tap.probe.times)
            for taps in circuit._taps.values()
            for tap in taps
        }

    original, entry = _mixed_circuit()
    rebuilt = import_netlist(netlist_description(original))
    assert run(rebuilt, rebuilt["entry"]) == run(original, entry)


def test_import_unknown_cell_type_raises():
    circuit, _entry = _mixed_circuit()
    description = netlist_description(circuit)
    description["cells"][0]["type"] = "FluxCapacitor"
    with pytest.raises(NetlistError, match="FluxCapacitor"):
        import_netlist(description)


def test_import_without_params_raises():
    circuit, _entry = _mixed_circuit()
    description = netlist_description(circuit)
    del description["cells"][0]["params"]
    with pytest.raises(NetlistError, match="params"):
        import_netlist(description)


def test_import_unknown_probe_type_raises():
    from repro.trace import TraceSession

    circuit, _entry = _mixed_circuit()
    TraceSession(circuit)  # attaches TracePort taps
    with pytest.raises(NetlistError, match="TracePort"):
        import_netlist(netlist_description(circuit))


@pytest.mark.parametrize("name", list(SHIPPED_BLOCKS))
def test_every_shipped_block_round_trips(name):
    description = netlist_description(build_shipped_block(name).circuit)
    assert netlist_description(import_netlist(description)) == description


def test_registry_covers_the_full_cell_library():
    registry = default_cell_registry()
    for kind in ("Jtl", "Splitter", "Merger", "IdealMerger", "Ndro", "Dff",
                 "Dff2", "Tff", "Tff2", "Inverter", "Bff", "Mux", "Demux",
                 "FirstArrival", "LastArrival", "ClockedAnd", "ClockedOr",
                 "ClockedXor", "DropChannel", "JitterChannel"):
        assert kind in registry


def test_cells_without_recoverable_params_export_without_them():
    class Mystery(Jtl):
        def __init__(self, name, secret=7):
            super().__init__(name)
            self._hidden = secret

    circuit = Circuit("mystery")
    circuit.add(Mystery("m"))
    description = netlist_description(circuit)
    assert "params" not in description["cells"][0]
    registry = {**default_cell_registry(), "Mystery": Mystery}
    with pytest.raises(NetlistError, match="params"):
        import_netlist(description, registry=registry)


def _set_param(key, value):
    def mutate(description):
        description["cells"][0]["params"][key] = value
    return mutate


def _set_wire_delay(value):
    def mutate(description):
        description["wires"][0]["delay_fs"] = value
    return mutate


@pytest.mark.parametrize("mutate, match", [
    (_set_param("delay", "x"), "non-negative integer"),
    (_set_param("delay", -5_000), "non-negative integer"),
    (_set_param("delay", 2.5), "non-negative integer"),
    (_set_param("delay", True), "non-negative integer"),
    (_set_wire_delay(1.5), "non-negative integer"),
    (_set_wire_delay(-1), "non-negative integer"),
    (_set_wire_delay(False), "non-negative integer"),
    (_set_param("bogus", 1), r"cells\[0\].*bogus"),
    (lambda d: d.update(wires=[None]), r"wires\[0\]"),
    (lambda d: d.update(cells="abc"), "'cells' must be a list"),
    (lambda d: d.update(cells=["abc"]), r"cells\[0\]"),
    (lambda d: d["probes"][0].pop("label"), r"probes\[0\]"),
    (lambda d: d.pop("name"), "description"),
], ids=[
    "delay-str", "delay-negative", "delay-float", "delay-bool",
    "wire-delay-float", "wire-delay-negative", "wire-delay-bool",
    "unknown-param", "wire-none", "cells-str", "cell-str", "probe-no-label",
    "no-name",
])
def test_import_rejects_malformed_documents(mutate, match):
    circuit, _entry = _mixed_circuit()
    description = netlist_description(circuit)
    mutate(description)
    with pytest.raises(NetlistError, match=match):
        import_netlist(description)
