"""Derived checks: overflow witnesses, collisions, dead paths, and the
queue/energy bounds cross-checked against a real simulation."""

import random

from repro.analyze.api import AnalyzeConfig, analyze_circuit
from repro.analyze.checks import SET_CAP, cell_arrival_sets
from repro.cells.interconnect import IdealMerger, Jtl, Merger, Splitter
from repro.cells.storage import Dff2
from repro.encoding.epoch import EpochSpec
from repro.lint.api import LintConfig, lint_circuit
from repro.lint.report import Severity
from repro.models.power import measured_switching_events
from repro.pulsesim import Circuit, Simulator
from repro.pulsesim.faults import DropChannel, JitterChannel
from repro.synth import analyze_program, compile_spec, lint_program, random_spec
from repro.trace.session import TraceSession


def _epoch():
    return EpochSpec(bits=2, slot_fs=100)  # 400 fs budget


def _overlong_chain():
    """Entry -> jtl -> (1000 fs wire) -> jtl -> observed: blows a 400 fs
    epoch on the last hop only."""
    circuit = Circuit("overlong")
    head = circuit.add(Jtl("head", delay=10))
    tail = circuit.add(Jtl("tail", delay=10))
    circuit.connect(head, "q", tail, "a", delay=1_000)
    return circuit, head, tail


class TestEpochOverflow:
    def test_seeded_fault_caught_with_witness_chain(self):
        circuit, head, tail = _overlong_chain()
        analysis = analyze_circuit(
            circuit, [(head, "a")], [(tail, "q")],
            config=AnalyzeConfig(epoch=_epoch()),
        )
        report = analysis.report
        assert not report.ok
        [finding] = report.by_check("epoch-overflow")
        assert finding.severity is Severity.ERROR
        assert finding.element == "tail" and finding.port == "q"
        # Witness reads stimulus-first and ends at the flagged emission.
        assert "stimulus" in finding.witness[0]
        assert finding.witness[-1].startswith("tail.q")
        assert report.stats["epoch_slack_fs"] == 400 - 1_020

    def test_linter_agrees_on_the_same_fault(self):
        circuit, head, tail = _overlong_chain()
        lint = lint_circuit(
            circuit, [(head, "a")], [(tail, "q")],
            config=LintConfig(epoch=_epoch()),
        )
        assert any(d.rule == "epoch-overflow" for d in lint.diagnostics)

    def test_within_budget_is_clean_with_positive_slack(self):
        circuit = Circuit("short")
        head = circuit.add(Jtl("head", delay=10))
        analysis = analyze_circuit(
            circuit, [(head, "a")], [(head, "q")],
            config=AnalyzeConfig(epoch=_epoch()),
        )
        assert analysis.report.ok
        assert analysis.report.stats["epoch_slack_fs"] == 390


class TestMergerCollision:
    def _fan_in(self, dead_time, skew):
        circuit = Circuit("fanin")
        a = circuit.add(Jtl("a", delay=10))
        b = circuit.add(Jtl("b", delay=10 + skew))
        m = circuit.add(Merger("m", delay=10, dead_time=dead_time))
        circuit.connect(a, "q", m, "a", delay=0)
        circuit.connect(b, "q", m, "b", delay=0)
        return circuit, a, b, m

    def test_disjoint_windows_prove_freedom(self):
        circuit, a, b, m = self._fan_in(dead_time=50, skew=500)
        analysis = analyze_circuit(
            circuit, [(a, "a"), (b, "a")], [(m, "q")])
        assert not analysis.report.by_check("merger-collision")
        assert analysis.report.stats["mergers_proved"] == 1

    def test_overlapping_windows_flagged_with_both_streams(self):
        circuit, a, b, m = self._fan_in(dead_time=50, skew=0)
        analysis = analyze_circuit(
            circuit, [(a, "a"), (b, "a")], [(m, "q")])
        [finding] = analysis.report.by_check("merger-collision")
        assert finding.severity is Severity.WARNING
        assert len(finding.witness) == 2  # one line per live input
        assert analysis.report.stats["mergers_proved"] == 0

    def test_waiver_moves_finding_aside(self):
        circuit, a, b, m = self._fan_in(dead_time=50, skew=0)
        analysis = analyze_circuit(
            circuit, [(a, "a"), (b, "a")], [(m, "q")],
            config=AnalyzeConfig(waive=frozenset({"merger-collision"})),
        )
        assert not analysis.report.findings
        assert len(analysis.report.waived) == 1


class TestSingleWaveSets:
    """Exact single-wave arrival sets: the merger proof the interval
    windows cannot carry."""

    def test_table_cells_follow_the_ports_their_rows_list(self):
        # Dff2 reads out on c1/c2, never on its data port.
        sets = cell_arrival_sets(Dff2("d", delay=5), {
            "a": frozenset({100}), "c1": frozenset({10}),
            "c2": frozenset({20, 40}),
        })
        assert sets == {"y1": frozenset({15}), "y2": frozenset({25, 45})}

    def test_unions_are_unknown_on_shared_times_or_past_the_cap(self):
        merger = Merger("m", delay=1)
        assert cell_arrival_sets(merger, {
            "a": frozenset({0}), "b": frozenset({10})}) == {
            "q": frozenset({1, 11})}
        assert cell_arrival_sets(merger, {
            "a": frozenset({0}), "b": frozenset({0})}) == {"q": None}
        evens = frozenset(range(0, 2 * SET_CAP, 2))
        assert cell_arrival_sets(merger, {
            "a": evens, "b": frozenset({1})}) == {"q": None}
        assert cell_arrival_sets(merger, {
            "a": None, "b": frozenset()}) == {"q": None}

    def test_cells_without_a_set_rule_are_unknown(self):
        assert cell_arrival_sets(JitterChannel("j", std_fs=0), {
            "a": frozenset({0})}) == {"q": None}
        assert cell_arrival_sets(DropChannel("d", drop_rate=0.5), {
            "a": frozenset({7})}) == {"q": frozenset({7})}

    def _interleaved(self):
        """m.a carries two pulses 20 ps apart; m.b's one lands between."""
        circuit = Circuit("interleaved")
        root = circuit.add(Splitter("root", delay=1_000))
        fork = circuit.add(Splitter("fork", delay=1_000))
        join = circuit.add(IdealMerger("join", delay=1_000))
        m = circuit.add(Merger("m", delay=1_000, dead_time=5_000))
        circuit.connect(root, "q1", fork, "a")
        circuit.connect(fork, "q1", join, "a")
        circuit.connect(fork, "q2", join, "b", delay=20_000)
        circuit.connect(join, "q", m, "a")
        circuit.connect(root, "q2", m, "b", delay=12_000)
        circuit.probe(m, "q")
        return circuit, root, m

    def test_interleaved_streams_are_proved_on_their_sets(self):
        circuit, root, m = self._interleaved()
        analysis = analyze_circuit(circuit, [(root, "a")])
        # The windows overlap (interval gap 0), the sets are 10 ps apart.
        assert analysis.input_bounds(m, "a").t_max > \
            analysis.input_bounds(m, "b").t_min
        assert analysis.report.stats["mergers_proved"] == 1
        assert not analysis.report.findings
        sim = Simulator(circuit, kernel="reference")
        sim.schedule_input(root, "a", 0)
        sim.run()
        assert m.collisions == 0

    def test_only_a_single_pulse_entry_has_a_set(self):
        circuit, root, _m = self._interleaved()
        one = analyze_circuit(circuit, stimulus={(root, "a"): [4_000]})
        assert one.report.stats["mergers_proved"] == 1
        two = analyze_circuit(circuit,
                              stimulus={(root, "a"): [0, 100_000]})
        assert two.report.stats["mergers_proved"] == 0

    def test_feedback_leaves_sets_unknown(self):
        circuit = Circuit("loop")
        m = circuit.add(Merger("m", delay=1_000, dead_time=5_000))
        split = circuit.add(Splitter("s", delay=1_000))
        circuit.connect(m, "q", split, "a")
        circuit.connect(split, "q1", m, "b")
        circuit.probe(split, "q2")
        # The fed-back pulse reaches m.b 2 ps after the entry pulse.
        analysis = analyze_circuit(circuit, [(m, "a")])
        assert analysis.report.by_check("merger-collision")

    def test_every_random_program_merger_is_proved(self):
        # A fixed sample of synthesized programs: the interval windows
        # alone leave some mergers unproved here; the sets prove all,
        # and lint (which reports the analyzer) stays quiet.
        unproved = flagged = 0
        for example in range(200):
            program = compile_spec(
                random_spec(random.Random(f"s0/{example}")))
            stats = analyze_program(program).report.stats
            unproved += stats["mergers_checked"] - stats["mergers_proved"]
            flagged += len(lint_program(program).by_rule("merger-collision"))
        assert (unproved, flagged) == (0, 0)


class TestDeadPath:
    def test_requires_stimulus_mode(self):
        circuit = Circuit("dead")
        a = circuit.add(Jtl("a", delay=10))
        b = circuit.add(Jtl("b", delay=10))
        circuit.connect(a, "q", b, "a", delay=0)
        # Proof mode: liveness not judged.
        proof = analyze_circuit(circuit, [(a, "a")], [(b, "q")])
        assert not proof.report.by_check("dead-path")
        # Stimulus mode with a silent entry: both the wired input and the
        # observed output are provably dead.
        analysis = analyze_circuit(
            circuit, [(a, "a")], [(b, "q")],
            stimulus={(a, "a"): []},
        )
        dead = analysis.report.by_check("dead-path")
        assert {(f.element, f.port) for f in dead} == {("b", "a"), ("b", "q")}


class TestDynamicBracketing:
    """Static bounds must contain what one simulation actually does."""

    def _tree(self):
        circuit = Circuit("tree")
        root = circuit.add(Splitter("root", delay=10))
        left = circuit.add(Jtl("left", delay=10))
        right = circuit.add(Jtl("right", delay=10))
        m = circuit.add(IdealMerger("m", delay=10))
        circuit.connect(root, "q1", left, "a", delay=100)
        circuit.connect(root, "q2", right, "a", delay=200)
        circuit.connect(left, "q", m, "a", delay=0)
        circuit.connect(right, "q", m, "b", delay=0)
        circuit.probe(m, "q")
        return circuit, root

    def test_queue_bound_dominates_simulated_peak(self):
        circuit, root = self._tree()
        times = [0, 1_000, 2_000]
        analysis = analyze_circuit(
            circuit, stimulus={(root, "a"): times})
        sim = Simulator(circuit, kernel="reference")
        sim.schedule_train(root, "a", times)
        stats = sim.run()
        assert analysis.queue_depth_bound >= stats.max_queue_depth

    def test_energy_envelope_brackets_measured_activity(self):
        circuit, root = self._tree()
        times = [0, 1_000, 2_000]
        analysis = analyze_circuit(
            circuit, stimulus={(root, "a"): times})
        lo, hi = analysis.switching_events
        session = TraceSession(circuit)
        sim = Simulator(circuit, kernel="reference", trace=session)
        sim.schedule_train(root, "a", times)
        sim.run()
        measured = measured_switching_events(session, circuit)
        assert lo <= measured <= hi
