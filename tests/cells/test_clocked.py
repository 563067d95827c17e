"""Clocked Boolean gates (the binary RSFQ logic style)."""

import pytest
from hypothesis import given, strategies as st

from repro.cells.clocked import ClockedAnd, ClockedOr, ClockedXor
from repro.pulsesim import Circuit, Simulator

GATES = {
    ClockedAnd: lambda a, b: a and b,
    ClockedOr: lambda a, b: a or b,
    ClockedXor: lambda a, b: a != b,
}


def _run_cycle(gate_class, a, b):
    circuit = Circuit()
    gate = circuit.add(gate_class("g"))
    probe = circuit.probe(gate, "q")
    sim = Simulator(circuit)
    if a:
        sim.schedule_input(gate, "a", 0)
    if b:
        sim.schedule_input(gate, "b", 0)
    sim.schedule_input(gate, "clk", 10_000)
    sim.run()
    return probe.count()


@pytest.mark.parametrize("gate_class", GATES)
@pytest.mark.parametrize("a", (False, True))
@pytest.mark.parametrize("b", (False, True))
def test_truth_tables(gate_class, a, b):
    expected = 1 if GATES[gate_class](a, b) else 0
    assert _run_cycle(gate_class, a, b) == expected


def test_clock_clears_latches():
    circuit = Circuit()
    gate = circuit.add(ClockedAnd("g"))
    probe = circuit.probe(gate, "q")
    sim = Simulator(circuit)
    sim.schedule_input(gate, "a", 0)
    sim.schedule_input(gate, "b", 0)
    sim.schedule_input(gate, "clk", 10_000)  # fires
    sim.schedule_input(gate, "clk", 20_000)  # latches cleared -> silent
    sim.run()
    assert probe.count() == 1


@given(st.lists(st.sampled_from(["a", "b", "clk"]), max_size=12))
def test_multi_cycle_sequences_match_model(events):
    circuit = Circuit()
    gate = circuit.add(ClockedXor("g"))
    probe = circuit.probe(gate, "q")
    sim = Simulator(circuit)
    # Software model of the latch-and-evaluate behaviour.
    a = b = False
    expected = 0
    for i, port in enumerate(events):
        sim.schedule_input(gate, port, (i + 1) * 10_000)
        if port == "a":
            a = True
        elif port == "b":
            b = True
        else:
            expected += 1 if a != b else 0
            a = b = False
    sim.run()
    assert probe.count() == expected


def test_inputs_latch_until_clock():
    circuit = Circuit()
    gate = circuit.add(ClockedOr("g"))
    probe = circuit.probe(gate, "q")
    sim = Simulator(circuit)
    sim.schedule_input(gate, "a", 0)
    sim.schedule_input(gate, "clk", 90_000)  # long after the input
    sim.run()
    assert probe.count() == 1


def test_reset_clears_state():
    gate = ClockedAnd("g")
    gate.state = 3  # both inputs latched
    gate.reset()
    assert gate.state == 0
