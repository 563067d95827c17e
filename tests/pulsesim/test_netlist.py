"""Circuit construction rules and introspection."""

import gc
import weakref

import pytest

from repro.cells.interconnect import Jtl, Merger, Splitter
from repro.errors import NetlistError
from repro.pulsesim import Circuit, Simulator


def test_duplicate_element_names_rejected():
    circuit = Circuit()
    circuit.add(Jtl("x"))
    with pytest.raises(NetlistError, match="duplicate"):
        circuit.add(Jtl("x"))


def test_element_cannot_join_two_circuits():
    c1, c2 = Circuit("a"), Circuit("b")
    cell = c1.add(Jtl("x"))
    with pytest.raises(NetlistError, match="already belongs"):
        c2.add(cell)


def test_lookup_by_name():
    circuit = Circuit()
    cell = circuit.add(Jtl("x"))
    assert circuit["x"] is cell
    with pytest.raises(NetlistError, match="no element"):
        circuit["missing"]


def test_connect_validates_ports():
    circuit = Circuit()
    a = circuit.add(Jtl("a"))
    b = circuit.add(Jtl("b"))
    with pytest.raises(NetlistError):
        circuit.connect(a, "nope", b, "a")
    with pytest.raises(NetlistError):
        circuit.connect(a, "q", b, "nope")
    with pytest.raises(NetlistError):
        circuit.connect(a, "q", b, "a", delay=-1)


def test_connect_rejects_foreign_elements():
    c1, c2 = Circuit("a"), Circuit("b")
    a = c1.add(Jtl("a"))
    b = c2.add(Jtl("b"))
    with pytest.raises(NetlistError, match="does not belong"):
        c1.connect(a, "q", b, "a")


def test_circuits_die_on_del_without_the_cycle_collector():
    """Cells point back at their circuit only weakly: a compiled, linted,
    analyzed and simulated synth program, a DPU after sealed and batch
    runs on its circuit, and a sealed circuit whose fault channel runs on the generic
    call opcode are freed by reference counting alone."""
    from pathlib import Path

    from repro.core.dpu import DotProductUnit
    from repro.encoding.epoch import EpochSpec
    from repro.pulsesim import DropChannel
    from repro.synth.api import analyze_program, compile_json, lint_program
    from tests.strategies import dpu_batch_counts

    spec = Path(__file__).parents[2] / "examples" / "specs" / "elementwise.json"
    gc.disable()
    try:
        program = compile_json(spec.read_text())
        lint_program(program)
        analyze_program(program)
        program.simulate()
        dpu = DotProductUnit(EpochSpec(bits=5), 8, bipolar=True)
        dpu.run_counts([1] * 8, [2] * 8)
        dpu_batch_counts(dpu, [[1] * 8] * 2, [[2] * 8] * 2)
        lossy = Circuit("lossy")
        head, channel, tail = (
            lossy.add(Jtl("head")),
            lossy.add(DropChannel("loss", drop_rate=0.5, seed=1)),
            lossy.add(Jtl("tail")),
        )
        lossy.connect(head, "q", channel, "a")
        lossy.connect(channel, "q", tail, "a")
        lossy.seal()
        sim = Simulator(lossy)
        sim.schedule_train(head, "a", range(0, 40_000, 10_000))
        sim.run()
        refs = [weakref.ref(obj) for obj in
                (program.circuit, dpu.circuit, lossy, head, channel, tail)]
        assert program.circuit.elements[0].circuit is program.circuit
        del program, dpu, lossy, head, channel, tail, sim
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_fanout_reaches_all_sinks():
    circuit = Circuit()
    src = circuit.add(Jtl("src", delay=0))
    sinks = [circuit.add(Jtl(f"s{i}", delay=0)) for i in range(3)]
    probes = [circuit.probe(s, "q") for s in sinks]
    for sink in sinks:
        circuit.connect(src, "q", sink, "a")
    sim = Simulator(circuit)
    sim.schedule_input(src, "a", 5)
    sim.run()
    assert all(p.count() == 1 for p in probes)


def test_jj_count_sums_cells():
    circuit = Circuit()
    circuit.add(Jtl("a"))        # 2
    circuit.add(Splitter("s"))   # 3
    circuit.add(Merger("m"))     # 5
    assert circuit.jj_count == 10


def test_probe_validates_port():
    circuit = Circuit()
    cell = circuit.add(Jtl("a"))
    with pytest.raises(NetlistError):
        circuit.probe(cell, "nope")


def test_circuit_reset_clears_merger_state():
    circuit = Circuit()
    merger = circuit.add(Merger("m"))
    sim = Simulator(circuit)
    sim.schedule_input(merger, "a", 0)
    sim.schedule_input(merger, "b", 0)  # collides
    sim.run()
    assert merger.collisions == 1
    circuit.reset()
    assert merger.collisions == 0


def test_fanout_returns_empty_list_on_miss():
    circuit = Circuit()
    cell = circuit.add(Jtl("a"))
    assert circuit.fanout(cell, "q") == []
    assert isinstance(circuit.fanout(cell, "q"), list)


def test_wires_iterate_every_connection():
    circuit = Circuit()
    a = circuit.add(Jtl("a"))
    split = circuit.add(Splitter("s"))
    b = circuit.add(Jtl("b"))
    circuit.connect(a, "q", split, "a")
    circuit.connect(split, "q1", b, "a")
    wires = circuit.wires
    assert len(wires) == 2
    assert list(circuit.iter_wires()) == wires
    assert circuit.wires_into(b, "a") == [wires[1]]


def test_wire_repr_names_endpoints_and_delay():
    circuit = Circuit()
    a = circuit.add(Jtl("a"))
    b = circuit.add(Jtl("b"))
    wire = circuit.connect(a, "q", b, "a", delay=7)
    assert repr(wire) == "<Wire a.q -> b.a, 7 fs>"


def test_duplicate_probe_rejected():
    circuit = Circuit()
    cell = circuit.add(Jtl("a"))
    circuit.probe(cell, "q")
    with pytest.raises(NetlistError, match="already has a probe"):
        circuit.probe(cell, "q")


def test_distinct_probe_labels_allowed_on_one_port():
    from repro.pulsesim.probe import PulseRecorder

    circuit = Circuit()
    cell = circuit.add(Jtl("a"))
    first = circuit.probe(cell, "q", PulseRecorder("raw"))
    second = circuit.probe(cell, "q", PulseRecorder("decoded"))
    assert first is not second
    assert circuit.probed_ports() == [(cell, "q")]
