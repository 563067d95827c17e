"""DFF, DFF2, NDRO semantics and tie-break priorities."""

from repro.cells.storage import Dff, Dff2, Ndro
from repro.pulsesim import Circuit, Simulator


def _wire(cell):
    circuit = Circuit()
    circuit.add(cell)
    return circuit, Simulator(circuit)


class TestDff:
    def test_clock_reads_and_clears(self):
        cell = Dff("d")
        circuit, sim = _wire(cell)
        probe = circuit.probe(cell, "q")
        sim.schedule_input(cell, "d", 0)
        sim.schedule_train(cell, "clk", [10_000, 20_000])
        sim.run()
        assert probe.count() == 1  # second read finds it empty

    def test_clock_without_data_is_silent(self):
        cell = Dff("d")
        circuit, sim = _wire(cell)
        probe = circuit.probe(cell, "q")
        sim.schedule_input(cell, "clk", 10_000)
        sim.run()
        assert probe.count() == 0

    def test_simultaneous_set_and_read_captures(self):
        cell = Dff("d")
        circuit, sim = _wire(cell)
        probe = circuit.probe(cell, "q")
        sim.schedule_input(cell, "clk", 5_000)
        sim.schedule_input(cell, "d", 5_000)  # d has priority 0 < clk
        sim.run()
        assert probe.count() == 1

    def test_double_set_stores_single_token(self):
        cell = Dff("d")
        circuit, sim = _wire(cell)
        probe = circuit.probe(cell, "q")
        sim.schedule_train(cell, "d", [0, 1_000])
        sim.schedule_train(cell, "clk", [10_000, 20_000])
        sim.run()
        assert probe.count() == 1


class TestDff2:
    def test_c1_reads_to_y1_and_c2_to_y2(self):
        cell = Dff2("d")
        circuit, sim = _wire(cell)
        p1 = circuit.probe(cell, "y1")
        p2 = circuit.probe(cell, "y2")
        sim.schedule_input(cell, "a", 0)
        sim.schedule_input(cell, "c1", 10_000)
        sim.schedule_input(cell, "a", 20_000)
        sim.schedule_input(cell, "c2", 30_000)
        sim.run()
        assert p1.count() == 1
        assert p2.count() == 1

    def test_read_is_destructive(self):
        cell = Dff2("d")
        circuit, sim = _wire(cell)
        p1 = circuit.probe(cell, "y1")
        p2 = circuit.probe(cell, "y2")
        sim.schedule_input(cell, "a", 0)
        sim.schedule_input(cell, "c1", 10_000)
        sim.schedule_input(cell, "c2", 20_000)  # already empty
        sim.run()
        assert p1.count() == 1
        assert p2.count() == 0


class TestNdro:
    def test_clock_reads_non_destructively(self):
        cell = Ndro("n")
        circuit, sim = _wire(cell)
        probe = circuit.probe(cell, "q")
        sim.schedule_input(cell, "set", 0)
        sim.schedule_train(cell, "clk", [10_000, 20_000, 30_000])
        sim.run()
        assert probe.count() == 3  # state survives every read

    def test_reset_blocks_subsequent_reads(self):
        cell = Ndro("n")
        circuit, sim = _wire(cell)
        probe = circuit.probe(cell, "q")
        sim.schedule_input(cell, "set", 0)
        sim.schedule_input(cell, "clk", 10_000)
        sim.schedule_input(cell, "reset", 15_000)
        sim.schedule_input(cell, "clk", 20_000)
        sim.run()
        assert probe.count() == 1

    def test_reset_beats_clock_when_simultaneous(self):
        # The Race-Logic multiplication convention: a reset landing in the
        # same slot as a stream pulse blocks that slot.
        cell = Ndro("n")
        circuit, sim = _wire(cell)
        probe = circuit.probe(cell, "q")
        sim.schedule_input(cell, "set", 0)
        sim.schedule_input(cell, "clk", 10_000)
        sim.schedule_input(cell, "reset", 10_000)
        sim.run()
        assert probe.count() == 0

    def test_set_beats_clock_when_simultaneous(self):
        cell = Ndro("n")
        circuit, sim = _wire(cell)
        probe = circuit.probe(cell, "q")
        sim.schedule_input(cell, "clk", 10_000)
        sim.schedule_input(cell, "set", 10_000)
        sim.run()
        assert probe.count() == 1
