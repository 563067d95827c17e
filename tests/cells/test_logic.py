"""Clocked inverter and first-arrival gate."""

from hypothesis import given, strategies as st

from repro.cells.logic import FirstArrival, Inverter, LastArrival
from repro.pulsesim import Circuit, Simulator
from repro.pulsesim.schedule import uniform_stream_times


def _run_inverter(data_times, clock_times_list):
    circuit = Circuit()
    cell = circuit.add(Inverter("inv"))
    probe = circuit.probe(cell, "q")
    sim = Simulator(circuit)
    sim.schedule_train(cell, "a", data_times)
    sim.schedule_train(cell, "clk", clock_times_list)
    sim.run()
    return probe


@given(
    bits=st.integers(min_value=1, max_value=7),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_inverter_emits_complement_count(bits, fraction):
    """With the clock at the maximum rate, output count = n_max - n."""
    n_max = 1 << bits
    n = round(fraction * n_max)
    slot = 12_000
    data = uniform_stream_times(n, n_max, slot)
    # Clock samples each slot shortly after the data pulse would arrive.
    clock = [t + 1_000 for t in uniform_stream_times(n_max, n_max, slot)]
    probe = _run_inverter(data, clock)
    assert probe.count() == n_max - n


def test_inverter_emits_on_clock_without_data():
    probe = _run_inverter([], [0, 10_000, 20_000])
    assert probe.count() == 3


def test_inverter_data_suppresses_next_clock_only():
    probe = _run_inverter([5_000], [0, 10_000, 20_000])
    # Clock at 0 fires (nothing seen yet); 10k suppressed; 20k fires.
    assert probe.count() == 2


def test_inverter_same_time_data_wins():
    # Data priority 0 < clk priority 1: a data pulse landing with the
    # clock suppresses that clock tick.
    probe = _run_inverter([10_000], [10_000])
    assert probe.count() == 0


class TestLastArrival:
    @staticmethod
    def _run(a_times, b_times, reset_times=()):
        circuit = Circuit()
        cell = circuit.add(LastArrival("la"))
        probe = circuit.probe(cell, "q")
        sim = Simulator(circuit)
        sim.schedule_train(cell, "a", a_times)
        sim.schedule_train(cell, "b", b_times)
        sim.schedule_train(cell, "reset", reset_times)
        sim.run()
        return cell, probe

    def test_fires_at_the_later_pulse(self):
        cell, probe = self._run([10_000], [40_000])
        assert probe.times == [40_000 + cell.delay]

    # A static method: Hypothesis rejects one @given method run on two
    # instances, and test_reference_kernel.py collects this class again.
    @staticmethod
    @given(
        a=st.integers(min_value=0, max_value=100),
        b=st.integers(min_value=0, max_value=100),
    )
    def test_computes_race_logic_max(a, b):
        slot = 12_000
        cell, probe = TestLastArrival._run([a * slot], [b * slot])
        assert probe.count() == 1
        assert (probe.first() - cell.delay) // slot == max(a, b)

    def test_single_input_never_fires(self):
        _, probe = self._run([10_000], [])
        assert probe.count() == 0

    def test_fires_once_per_epoch_until_reset(self):
        _, probe = self._run([10_000, 50_000], [20_000, 60_000])
        assert probe.count() == 1
        _, probe = self._run([10_000, 50_000], [20_000, 60_000], reset_times=[30_000])
        assert probe.count() == 2


class TestFirstArrival:
    @staticmethod
    def _run(a_times, b_times, reset_times=()):
        circuit = Circuit()
        cell = circuit.add(FirstArrival("fa"))
        probe = circuit.probe(cell, "q")
        sim = Simulator(circuit)
        sim.schedule_train(cell, "a", a_times)
        sim.schedule_train(cell, "b", b_times)
        sim.schedule_train(cell, "reset", reset_times)
        sim.run()
        return cell, probe

    def test_first_pulse_wins(self):
        cell, probe = self._run([30_000], [20_000])
        assert probe.count() == 1
        assert probe.first() == 20_000 + cell.delay

    # A static method: Hypothesis rejects one @given method run on two
    # instances, and test_reference_kernel.py collects this class again.
    @staticmethod
    @given(
        a=st.integers(min_value=0, max_value=100),
        b=st.integers(min_value=0, max_value=100),
    )
    def test_computes_race_logic_min(a, b):
        slot = 12_000
        cell, probe = TestFirstArrival._run([a * slot], [b * slot])
        assert probe.count() == 1
        assert (probe.first() - cell.delay) // slot == min(a, b)

    def test_rearms_after_reset(self):
        _, probe = self._run([10_000, 50_000], [], reset_times=[30_000])
        assert probe.count() == 2

    def test_only_first_pulse_per_epoch(self):
        _, probe = self._run([10_000, 20_000], [15_000])
        assert probe.count() == 1
