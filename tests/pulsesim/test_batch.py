"""Unit and property tests for the vectorized batch kernel.

Three layers of coverage:

* API semantics — run/resume, refusal of cells without a batch opcode,
  scheduling validation, per-lane drop-rate overrides, reset/RNG rewind,
  stats shapes, version pinning;
* differential properties — every lane of a batch run must equal a
  scalar ``kernel="sealed"`` run of the same circuit on that lane's
  stimulus (the same netlist strategy the sealed-vs-reference suite
  uses, so tie-order-sensitive cells are in scope);
* codec transport — the shared ``codec_cases`` strategy round-trips
  per-lane operand values through a batch-simulated JTL pipeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.interconnect import IdealMerger, Jtl, Splitter
from repro.cells.toggle import Tff
from repro.encoding.pulsestream import PulseStreamCodec
from repro.encoding.racelogic import RaceLogicCodec
from repro.errors import ConfigurationError, SimulationError
from repro.pulsesim import (
    BatchSimulator,
    Circuit,
    DropChannel,
    JitterChannel,
    PulseRecorder,
    Simulator,
)
from tests.strategies import (
    BATCH_LANES,
    codec_cases,
    jtl_pipe,
    lane_trains,
    netlists,
    run_case,
    run_case_batch,
    scalar_comparable,
)


def ff_fabric():
    """Feed-forward fabric: splitter -> two JTL paths -> ideal merger."""
    circuit = Circuit("ff")
    split = circuit.add(Splitter("s"))
    j1 = circuit.add(Jtl("j1"))
    j2 = circuit.add(Jtl("j2"))
    merger = circuit.add(IdealMerger("m"))
    circuit.connect(split, "q1", j1, "a", delay=100)
    circuit.connect(split, "q2", j2, "a", delay=300)
    circuit.connect(j1, "q", merger, "a")
    circuit.connect(j2, "q", merger, "b")
    probe = circuit.probe(merger, "q")
    return circuit, split, merger, probe


def tff_circuit():
    """Stateful circuit: JTL -> TFF."""
    circuit = Circuit("tff")
    jtl = circuit.add(Jtl("j"))
    tff = circuit.add(Tff("t"))
    circuit.connect(jtl, "q", tff, "a", delay=50)
    probe = circuit.probe(tff, "q")
    return circuit, jtl, tff, probe


def drop_circuit(rate=0.5, seed=7):
    circuit = Circuit("drop")
    jtl = circuit.add(Jtl("j"))
    channel = circuit.add(DropChannel("d", drop_rate=rate, seed=seed))
    circuit.connect(jtl, "q", channel, "a", delay=20)
    probe = circuit.probe(channel, "q")
    return circuit, jtl, channel, probe


TRAIN = [0, 1_000, 1_000, 2_500, 4_000, 4_000, 9_000]


class TestRun:
    def test_feedforward_counts_every_path(self):
        circuit, entry, merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=3)
        sim.schedule_train(entry, "a", TRAIN)
        sim.run()
        # Every input pulse reaches the merger twice (both paths).
        assert sim.port_counts(merger, "q").tolist() == [2 * len(TRAIN)] * 3

    def test_until_bounds_end_time(self):
        circuit, entry, merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=2)
        sim.schedule_train(entry, "a", TRAIN)
        stats = sim.run(until=100_000)
        assert stats.end_time.tolist() == [100_000, 100_000]

    def test_stateful_circuit_counts(self):
        circuit, entry, tff, _probe = tff_circuit()
        sim = BatchSimulator(circuit, batch=2)
        sim.schedule_train(entry, "a", TRAIN)
        sim.run()
        assert sim.port_counts(tff, "q").tolist() == [len(TRAIN) // 2] * 2

    def test_repeated_runs_accumulate(self):
        circuit, entry, merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=2)
        sim.schedule_train(entry, "a", TRAIN[:4])
        first = sim.run()
        # The second chunk starts after the first run ended.
        later = [t + int(first.end_time.max()) for t in TRAIN[4:]]
        sim.schedule_train(entry, "a", later)
        second = sim.run()
        assert second.events_total > first.events_total
        assert sim.port_counts(merger, "q").tolist() == [2 * len(TRAIN)] * 2

    def test_cell_without_batch_opcode_is_refused(self):
        class LateJtl(Jtl):
            def handle(self, sim, port, time):
                self.emit(sim, "q", time + self.delay + 1)

        circuit = Circuit("custom")
        circuit.add(LateJtl("late"))
        with pytest.raises(ConfigurationError, match=r"'late' \(LateJtl\)"):
            BatchSimulator(circuit, batch=2)

    def test_event_budget_is_enforced(self):
        circuit, entry, _tff, _probe = tff_circuit()
        sim = BatchSimulator(circuit, batch=4, max_events=3)
        sim.schedule_train(entry, "a", TRAIN)
        with pytest.raises(SimulationError):
            sim.run()


class TestScheduling:
    def test_schedule_input_broadcast_vs_array(self):
        circuit, entry, merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=3)
        sim.schedule_input(entry, "a", 1_000)
        sim.schedule_input(entry, "a", np.array([10, 20, 30]))
        sim.run()
        assert sim.port_counts(merger, "q").tolist() == [4, 4, 4]
        times = [sim.port_times(merger, "q", lane) for lane in range(3)]
        assert times[0] != times[1] != times[2]

    def test_validation_errors(self):
        circuit, entry, _merger, probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=2)
        with pytest.raises(SimulationError, match="negative"):
            sim.schedule_input(entry, "a", -5)
        with pytest.raises(SimulationError, match="not an input port"):
            sim.schedule_input(entry, "nope", 0)
        with pytest.raises(SimulationError, match="scalar or a"):
            sim.schedule_input(entry, "a", np.array([1, 2, 3]))
        with pytest.raises(SimulationError, match="lane ids"):
            sim.schedule_flat(entry, "a", [0, 1], [0, 2])
        with pytest.raises(SimulationError, match="does not match"):
            sim.schedule_flat(entry, "a", [0, 1], [0])
        with pytest.raises(SimulationError, match="one train per lane"):
            sim.schedule_lane_trains(entry, "a", [[0]])
        with pytest.raises(ConfigurationError, match="batch size"):
            BatchSimulator(circuit, batch=0)

    def test_circuit_change_after_build_raises(self):
        circuit, entry, merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=2)
        circuit.probe(merger, "q", PulseRecorder("extra"))  # bumps the version
        sim.schedule_input(entry, "a", 0)
        with pytest.raises(SimulationError, match="changed"):
            sim.run()

    def test_seal_batch_caches_per_version(self):
        circuit, _entry, merger, _probe = ff_fabric()
        program = circuit.seal_batch()
        assert circuit.seal_batch() is program
        circuit.probe(merger, "q", PulseRecorder("second"))
        assert circuit.seal_batch() is not program


class TestFaults:
    def test_set_drop_rates_per_lane(self):
        circuit, entry, channel, _probe = drop_circuit()
        sim = BatchSimulator(circuit, batch=4)
        sim.set_drop_rates(channel, [0.0, 0.3, 0.7, 1.0])
        pulses = list(range(0, 500_000, 1_000))
        sim.schedule_train(entry, "a", pulses)
        sim.run()
        counts = sim.port_counts(channel, "q").tolist()
        assert counts[0] == len(pulses)
        assert counts[3] == 0
        assert counts[0] > counts[1] > counts[2] > counts[3]
        seen = [sim.element_attr(channel, "pulses_seen", lane) for lane in range(4)]
        lost = [sim.element_attr(channel, "pulses_dropped", lane) for lane in range(4)]
        assert seen == [len(pulses)] * 4
        assert [s - d for s, d in zip(seen, lost)] == counts

    def test_set_drop_rates_validation(self):
        circuit = Circuit("faults")
        jtl = circuit.add(Jtl("j"))
        jitter = circuit.add(JitterChannel("g", std_fs=100))
        circuit.connect(jtl, "q", jitter, "a")
        circuit.probe(jitter, "q")
        sim = BatchSimulator(circuit, batch=2)
        with pytest.raises(ConfigurationError, match="not a DropChannel"):
            sim.set_drop_rates(jitter, 0.5)
        with pytest.raises(ConfigurationError, match="not a fault channel"):
            sim.set_drop_rates(jtl, 0.5)
        circuit2, _entry, channel, _probe = drop_circuit()
        sim2 = BatchSimulator(circuit2, batch=2)
        with pytest.raises(ConfigurationError, match=r"in \[0, 1\]"):
            sim2.set_drop_rates(channel, [0.5, 1.5])

    def test_deterministic_channels_match_scalar(self):
        for rate in (0.0, 1.0):
            circuit, entry, channel, _probe = drop_circuit(rate=rate)
            sim = BatchSimulator(circuit, batch=3)
            sim.schedule_train(entry, "a", TRAIN)
            sim.run()
            scircuit, sentry, schannel, sprobe = drop_circuit(rate=rate)
            ssim = Simulator(scircuit, kernel="sealed")
            ssim.schedule_train(sentry, "a", TRAIN)
            ssim.run()
            for lane in range(3):
                assert sim.port_times(channel, "q", lane) == sorted(sprobe.times)
                assert sim.element_attr(channel, "pulses_seen", lane) == \
                    schannel.pulses_seen
                assert sim.element_attr(channel, "pulses_dropped", lane) == \
                    schannel.pulses_dropped

    def test_jitter_counts_post_clamp_displacements(self):
        circuit = Circuit("jitter")
        jtl = circuit.add(Jtl("j"))
        jitter = circuit.add(JitterChannel("g", std_fs=300, mean_fs=100))
        circuit.connect(jtl, "q", jitter, "a", delay=10)
        circuit.probe(jitter, "q")
        sim = BatchSimulator(circuit, batch=3)
        inject = list(range(0, 200_000, 2_000))
        sim.schedule_train(jtl, "a", inject)
        sim.run()
        jtl_delay = Jtl("ref").delay
        for lane in range(3):
            arrivals = sim.port_times(jitter, "q", lane)
            entries = [t + jtl_delay + 10 for t in inject]
            moves = [out - t - 100 for out, t in zip(arrivals, sorted(entries))]
            displaced = sim.element_attr(jitter, "pulses_displaced", lane)
            peak = sim.element_attr(jitter, "max_displacement_fs", lane)
            assert displaced == sim.element_attr(jitter, "pulses_seen", lane) - \
                sum(1 for m in moves if m == 0)
            assert displaced > 0  # std=300 over 100 pulses: certain
            assert peak >= max(abs(m) for m in moves)
            assert min(t + 100 + m for t, m in zip(sorted(entries), moves)) >= \
                min(entries)  # clamp: never earlier than zero extra delay

    def test_lane_streams_independent_of_batch_size(self):
        results = {}
        for batch in (2, 5):
            circuit, entry, channel, _probe = drop_circuit(rate=0.4, seed=11)
            sim = BatchSimulator(circuit, batch=batch)
            sim.schedule_train(entry, "a", list(range(0, 300_000, 1_000)))
            sim.run()
            results[batch] = [
                sim.port_times(channel, "q", lane) for lane in range(2)
            ]
        assert results[2] == results[5]

    def test_reset_rewinds_rng_streams(self):
        circuit, entry, channel, _probe = drop_circuit(rate=0.4)
        sim = BatchSimulator(circuit, batch=2)

        def go():
            sim.schedule_train(entry, "a", list(range(0, 100_000, 1_000)))
            sim.run()
            return [sim.port_times(channel, "q", lane) for lane in range(2)]

        first = go()
        sim.reset()
        assert go() == first


class TestStats:
    def test_lane_stats_and_totals(self):
        circuit, entry, _merger, _probe = ff_fabric()
        sim = BatchSimulator(circuit, batch=3)
        sim.schedule_train(entry, "a", TRAIN)
        stats = sim.run()
        assert stats.events_total == int(stats.events.sum())
        assert stats.pulses_total == int(stats.pulses.sum())
        lane = stats.lane(1)
        assert lane.events_processed == int(stats.events[1])
        assert lane.pulses_emitted == int(stats.pulses[1])
        assert lane.end_time == int(stats.end_time[1])
        assert stats.wall_s >= 0.0

    def test_pending_events_drains(self):
        circuit, entry, _tff, _probe = tff_circuit()
        sim = BatchSimulator(circuit, batch=2)
        sim.schedule_train(entry, "a", TRAIN)
        sim.run(until=1_500)
        assert sim.pending_events > 0
        sim.run()
        assert sim.pending_events == 0

    def test_resumed_runs_reach_capture_stats_once(self):
        from repro.pulsesim import capture_stats

        circuit, entry, _tff, _probe = tff_circuit()
        sim = BatchSimulator(circuit, batch=3)
        sim.schedule_train(entry, "a", TRAIN)
        with capture_stats() as total:
            first = sim.run(until=1_500)
            assert total.events_processed == first.events_total > 0
            assert total.end_time == 1_500
            final = sim.run()
        assert total.events_processed == final.events_total
        assert total.pulses_emitted == final.pulses_total
        assert total.end_time == int(final.end_time.max())
        assert total.max_queue_depth == 0


@settings(max_examples=50, deadline=None)
@given(netlists())
def test_batch_matches_sealed_kernel_per_lane(case):
    build, stimulus = case
    lanes = run_case_batch(build, stimulus)
    for lane, train in enumerate(lane_trains(stimulus)):
        expected = scalar_comparable(run_case(build, train, "sealed"))
        assert lanes[lane] == expected, f"lane {lane} diverged"


@settings(max_examples=20, deadline=None)
@given(netlists(), st.integers(0, 30))
def test_batch_event_mode_matches_sealed_across_resume(case, cut):
    """Per-lane agreement across a run(until=...) boundary (event mode)."""
    build, stimulus = case
    horizon = cut * 1_000
    circuit, entry, probes = build()
    tap_ports = {
        id(tap.probe): (tap.source, port)
        for (_eid, port), taps in circuit._taps.items()
        for tap in taps
    }
    sim = BatchSimulator(circuit, batch=BATCH_LANES)
    sim.schedule_lane_trains(entry, "a", lane_trains(stimulus))
    sim.run(until=horizon)
    partial = [
        [sim.port_times(*tap_ports[id(p)], lane) for p in probes]
        for lane in range(BATCH_LANES)
    ]
    stats = sim.run()
    for lane, train in enumerate(lane_trains(stimulus)):
        scircuit, sentry, sprobes = build()
        ssim = Simulator(scircuit, kernel="sealed")
        ssim.schedule_train(sentry, "a", train)
        ssim.run(until=horizon)
        assert partial[lane] == [sorted(p.times) for p in sprobes]
        sstats = ssim.run()
        assert int(stats.events[lane]) == sstats.events_processed
        assert int(stats.pulses[lane]) == sstats.pulses_emitted
        assert int(stats.end_time[lane]) == sstats.end_time


@settings(max_examples=30, deadline=None)
@given(codec_cases(), st.integers(1, 7))
def test_batch_racelogic_transport_roundtrip(case, stride):
    """Per-lane Race-Logic operands survive batch-simulated transport."""
    epoch, _value, epoch_index = case
    codec = RaceLogicCodec(epoch)
    circuit, entry, _probe, latency = jtl_pipe()
    slots = [(lane * stride) % (epoch.n_max + 1) for lane in range(BATCH_LANES)]
    times = np.array(
        [codec.pulse_time(slot, epoch_index) for slot in slots], dtype=np.int64
    )
    sim = BatchSimulator(circuit, batch=BATCH_LANES)
    sim.schedule_input(entry, "a", times)
    sim.run()
    taps = [(tap.source, port)
            for (_eid, port), tap_list in circuit._taps.items()
            for tap in tap_list]
    element, port = taps[0]
    for lane, slot in enumerate(slots):
        arrivals = [t - latency for t in sim.port_times(element, port, lane)]
        assert codec.decode_pulse_train(arrivals, epoch_index) == slot


@settings(max_examples=30, deadline=None)
@given(codec_cases(), st.integers(1, 7))
def test_batch_pulsestream_transport_roundtrip(case, stride):
    """Per-lane pulse-stream operands survive batch-simulated transport."""
    epoch, _value, epoch_index = case
    codec = PulseStreamCodec(epoch)
    circuit, entry, _probe, latency = jtl_pipe()
    counts = [(lane * stride) % (epoch.n_max + 1) for lane in range(BATCH_LANES)]
    values = [codec.unipolar_of_count(n) for n in counts]
    sim = BatchSimulator(circuit, batch=BATCH_LANES)
    sim.schedule_lane_trains(
        entry, "a",
        [codec.encode_unipolar(value, epoch_index) for value in values],
    )
    sim.run()
    taps = [(tap.source, port)
            for (_eid, port), tap_list in circuit._taps.items()
            for tap in tap_list]
    element, port = taps[0]
    for lane, value in enumerate(values):
        arrivals = [t - latency for t in sim.port_times(element, port, lane)]
        assert codec.decode_unipolar(arrivals, epoch_index) == value
