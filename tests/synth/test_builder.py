"""The shared construction-legality helpers (builder is also consumed by
the verify generator — see its suite for the byte-stability locks)."""

from repro.cells.interconnect import Jtl, Splitter
from repro.pulsesim import Circuit, PulseRecorder
from repro.synth.builder import (
    fanout_chain,
    probe_unconsumed,
    splitters_needed,
)


def test_splitters_needed_is_the_shortfall():
    assert splitters_needed(2, 2) == 0
    assert splitters_needed(2, 5) == 3
    assert splitters_needed(5, 2) == 0


def test_fanout_chain_single_consumer_is_a_wire():
    circuit = Circuit("f")
    src = circuit.add(Jtl("src"))
    legs = fanout_chain(circuit, "x", src, "q", 1)
    assert legs == [(src, "q", 0)]
    assert len(circuit.elements) == 1  # no splitters inserted


def test_fanout_chain_builds_a_linear_splitter_chain():
    circuit = Circuit("f")
    src = circuit.add(Jtl("src"))
    legs = fanout_chain(circuit, "x", src, "q", 4)
    assert len(legs) == 4
    names = [element.name for element in circuit.elements]
    assert names == ["src", "x__s1", "x__s2", "x__s3"]
    # q1 legs at depths 1..3, the final q2 leg at the chain's depth.
    depths = [depth for _el, _port, depth in legs]
    assert depths == [1, 2, 3, 3]
    ports = [port for _el, port, depth in legs]
    assert ports == ["q1", "q1", "q1", "q2"]


def test_probe_unconsumed_probes_exactly_the_leftovers():
    circuit = Circuit("f")
    a = circuit.add(Jtl("a"))
    b = circuit.add(Jtl("b"))
    outputs = [(a, "q"), (b, "q")]
    probes = probe_unconsumed(circuit, outputs, frozenset({0}))
    assert len(probes) == 1
    assert isinstance(probes[0], PulseRecorder)


def test_fanout_chain_legs_all_descend_from_the_source():
    circuit = Circuit("f")
    src = circuit.add(Splitter("root"))
    legs = fanout_chain(circuit, "fan", src, "q1", 3)
    sinks = {element.name for element, _port, _depth in legs}
    assert sinks == {"fan__s1", "fan__s2"}
