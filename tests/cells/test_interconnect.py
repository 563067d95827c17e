"""JTL, splitter, merger semantics."""


from repro.cells.interconnect import IdealMerger, Jtl, Merger, Splitter
from repro.models import technology as tech
from repro.pulsesim import Circuit, Simulator


def _single_cell(cell):
    circuit = Circuit()
    circuit.add(cell)
    return circuit


def test_jtl_delays_each_pulse():
    cell = Jtl("j", delay=2_000)
    circuit = _single_cell(cell)
    probe = circuit.probe(cell, "q")
    sim = Simulator(circuit)
    sim.schedule_train(cell, "a", [0, 10_000])
    sim.run()
    assert probe.times == [2_000, 12_000]


def test_splitter_duplicates_to_both_outputs():
    cell = Splitter("s", delay=3_000)
    circuit = _single_cell(cell)
    p1 = circuit.probe(cell, "q1")
    p2 = circuit.probe(cell, "q2")
    sim = Simulator(circuit)
    sim.schedule_input(cell, "a", 100)
    sim.run()
    assert p1.times == [3_100]
    assert p2.times == [3_100]


def test_merger_passes_well_spaced_pulses():
    cell = Merger("m")
    circuit = _single_cell(cell)
    probe = circuit.probe(cell, "q")
    sim = Simulator(circuit)
    sim.schedule_input(cell, "a", 0)
    sim.schedule_input(cell, "b", 50_000)
    sim.run()
    assert probe.count() == 2
    assert cell.collisions == 0


def test_merger_drops_pulse_within_dead_time():
    cell = Merger("m", dead_time=5_000)
    circuit = _single_cell(cell)
    probe = circuit.probe(cell, "q")
    sim = Simulator(circuit)
    sim.schedule_input(cell, "a", 0)
    sim.schedule_input(cell, "b", 4_999)
    sim.run()
    assert probe.count() == 1
    assert cell.collisions == 1


def test_merger_accepts_pulse_at_exactly_dead_time():
    cell = Merger("m", dead_time=5_000)
    circuit = _single_cell(cell)
    probe = circuit.probe(cell, "q")
    sim = Simulator(circuit)
    sim.schedule_input(cell, "a", 0)
    sim.schedule_input(cell, "b", 5_000)
    sim.run()
    assert probe.count() == 2


def test_merger_simultaneous_pulses_collide():
    cell = Merger("m")
    circuit = _single_cell(cell)
    probe = circuit.probe(cell, "q")
    sim = Simulator(circuit)
    sim.schedule_input(cell, "a", 1_000)
    sim.schedule_input(cell, "b", 1_000)
    sim.run()
    assert probe.count() == 1
    assert cell.collisions == 1


def test_merger_dead_time_window_slides():
    # Three pulses each 3 ps apart with a 5 ps dead time: the second is
    # absorbed, the third lands 6 ps after the last *accepted* pulse.
    cell = Merger("m", dead_time=5_000)
    circuit = _single_cell(cell)
    probe = circuit.probe(cell, "q")
    sim = Simulator(circuit)
    for t in (0, 3_000, 6_000):
        sim.schedule_input(cell, "a", t)
    sim.run()
    assert probe.count() == 2
    assert cell.collisions == 1
    assert cell._last_emit == 6_000  # the timer skips absorbed pulses


def test_ideal_merger_never_collides():
    cell = IdealMerger("m")
    circuit = _single_cell(cell)
    probe = circuit.probe(cell, "q")
    sim = Simulator(circuit)
    sim.schedule_input(cell, "a", 0)
    sim.schedule_input(cell, "b", 0)
    sim.run()
    assert probe.count() == 2


def test_jj_counts_match_catalogue():
    assert Jtl("j").jj_count == tech.JJ_JTL
    assert Splitter("s").jj_count == tech.JJ_SPLITTER
    assert Merger("m").jj_count == tech.JJ_MERGER == 5  # paper Fig 5a
