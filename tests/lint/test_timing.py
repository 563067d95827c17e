"""Lint's timing rules: epoch overflow and merger collisions, as the
pulse-flow analyzer judges them under the single-wave convention."""

from repro.cells import Jtl, Merger, Splitter
from repro.cells.interconnect import IdealMerger
from repro.encoding import EpochSpec
from repro.lint import LintConfig, Severity, lint_circuit
from repro.pulsesim import Circuit, Simulator


def rule_hits(report, rule, severity=None):
    hits = report.by_rule(rule)
    if severity is not None:
        hits = [d for d in hits if d.severity is severity]
    return hits


# -- epoch-overflow ------------------------------------------------------------
def _chain(circuit, n, delay):
    cells = [circuit.add(Jtl(f"j{i}", delay=delay)) for i in range(n)]
    for up, down in zip(cells, cells[1:]):
        circuit.connect(up, "q", down, "a")
    circuit.probe(cells[-1], "q")
    return cells


def test_epoch_overflow_flagged():
    epoch = EpochSpec(bits=2, slot_fs=10)  # 40 fs budget
    circuit = Circuit()
    cells = _chain(circuit, 5, delay=20)  # 100 fs worst case
    config = LintConfig(epoch=epoch)
    report = lint_circuit(
        circuit, entry_points=[(cells[0], "a")], config=config
    )
    hits = rule_hits(report, "epoch-overflow", Severity.ERROR)
    # One finding per cell that emits after 40 fs: j2 (60 fs) onwards.
    assert [hit.element for hit in hits] == ["j2", "j3", "j4"]
    assert "closes at 60 fs, past the 2-bit epoch (40 fs" in hits[0].message


def test_epoch_overflow_clean_when_paths_fit():
    epoch = EpochSpec(bits=4, slot_fs=100)  # 1600 fs budget
    circuit = Circuit()
    cells = _chain(circuit, 5, delay=20)
    config = LintConfig(epoch=epoch)
    report = lint_circuit(
        circuit, entry_points=[(cells[0], "a")], config=config
    )
    assert not rule_hits(report, "epoch-overflow")


def test_epoch_overflow_skipped_without_epoch():
    circuit = Circuit()
    cells = _chain(circuit, 5, delay=10**9)
    report = lint_circuit(circuit, entry_points=[(cells[0], "a")])
    assert not rule_hits(report, "epoch-overflow")


# -- merger-collision ----------------------------------------------------------
def _merger_pair(skew: int, dead_time: int):
    """Two entry-driven legs into one merger, arriving `skew` fs apart."""
    circuit = Circuit()
    a = circuit.add(Jtl("a", delay=10))
    b = circuit.add(Jtl("b", delay=10 + skew))
    merger = circuit.add(Merger("m", dead_time=dead_time))
    circuit.connect(a, "q", merger, "a")
    circuit.connect(b, "q", merger, "b")
    circuit.probe(merger, "q")
    return circuit, [(a, "a"), (b, "a")]


def test_merger_collision_flagged_inside_dead_time():
    circuit, entries = _merger_pair(skew=3, dead_time=5)
    report = lint_circuit(circuit, entry_points=entries)
    (hit,) = rule_hits(report, "merger-collision", Severity.WARNING)
    assert (hit.element, hit.port) == ("m", "b")
    assert "may arrive 3 fs apart (< dead time 5 fs)" in hit.message


def test_merger_collision_clean_outside_dead_time():
    circuit, entries = _merger_pair(skew=50, dead_time=5)
    report = lint_circuit(circuit, entry_points=entries)
    assert not rule_hits(report, "merger-collision")


def test_ideal_merger_has_no_collision_window():
    circuit, entries = _merger_pair(skew=0, dead_time=0)
    report = lint_circuit(circuit, entry_points=entries)
    assert not rule_hits(report, "merger-collision")


def test_merger_collision_sees_every_pulse_on_a_port():
    # An upstream IdealMerger puts two pulses on m.a, 10 ps apart; m.b
    # lands on the *earlier* one.  Only the latest arrivals (m.a at
    # 18 ps, m.b at 8 ps) are 10 ps apart, yet one pulse is lost.
    circuit = Circuit()
    split = circuit.add(Splitter("split", delay=1_000))
    fork = circuit.add(Splitter("fork", delay=1_000))
    join = circuit.add(IdealMerger("join", delay=1_000))
    m = circuit.add(Merger("m", delay=1_000, dead_time=5_000))
    circuit.connect(split, "q1", fork, "a")
    circuit.connect(fork, "q1", join, "a")
    circuit.connect(fork, "q2", join, "b", delay=10_000)
    circuit.connect(join, "q", m, "a")
    circuit.connect(split, "q2", m, "b", delay=2_000)
    circuit.probe(m, "q")
    entries = [(split, "a")]
    (hit,) = rule_hits(lint_circuit(circuit, entry_points=entries),
                       "merger-collision")
    assert (hit.element, hit.port) == ("m", "b")

    sim = Simulator(circuit)
    sim.schedule_input(split, "a", 0)
    sim.run()
    assert m.collisions == 1
