"""repro.shard.engine: conservative-sync equivalence and the host API."""

import pytest

from repro.cells.interconnect import Jtl, Splitter
from repro.cells.toggle import Tff
from repro.core.buffer import RlMemoryCell
from repro.errors import ConfigurationError, SimulationError
from repro.pulsesim import Circuit, Simulator
from repro.pulsesim.export import netlist_description
from repro.shard.engine import ShardSimulator, _freeze
from repro.shard.partition import (
    CutWire,
    LinkSpec,
    ShardPlan,
    build_noc_circuit,
    plan_partition,
)
from repro.verify.oracles import STATE_ATTRS
from tests.shard.fabric import WIDE_LINK, wide_fabric

STIMULUS = [0, 500, 500, 7_000, 7_000, 31_000, 44_000, 90_000]


def _chain():
    """An 8-cell Jtl/Tff chain with probes sprinkled along it."""
    circuit = Circuit("chain")
    entry = circuit.add(Splitter("entry"))
    previous, port = entry, "q1"
    for index in range(7):
        factory = Tff if index % 3 == 2 else Jtl
        cell = circuit.add(factory(f"c{index}"))
        circuit.connect(previous, port, cell, "a", delay=137 * (index + 1))
        previous, port = cell, "q"
    circuit.probe(entry, "q2")
    circuit.probe(circuit["c3"], "q")
    circuit.probe(previous, port)
    return circuit


def _monolithic_side(circuit, plan):
    mono = build_noc_circuit(circuit, plan)
    sim = Simulator(mono, kernel="sealed")
    for time in STIMULUS[:3]:
        sim.schedule_input(mono["entry"], "a", time)
    sim.schedule_train(mono["entry"], "a", STIMULUS[3:])
    stats = sim.run()
    recordings = {
        tap.probe.label: list(tap.probe.times)
        for taps in mono._taps.values()
        for tap in taps
    }
    return stats, sim.now, recordings


def _sharded_side(circuit, plan, jobs):
    with ShardSimulator(circuit, plan, jobs=jobs) as sharded:
        for time in STIMULUS[:3]:
            sharded.schedule_input("entry", "a", time)
        sharded.schedule_train("entry", "a", STIMULUS[3:])
        stats = sharded.run()
        return stats, sharded.now, sharded.recordings(), sharded.windows


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("num_shards", [2, 3])
def test_partitioned_run_matches_monolithic(jobs, num_shards):
    circuit = _chain()
    plan = plan_partition(circuit, num_shards)
    mono_stats, mono_now, mono_recordings = _monolithic_side(circuit, plan)
    stats, now, recordings, windows = _sharded_side(_chain(), plan, jobs)
    assert recordings == mono_recordings
    assert stats.events_processed == mono_stats.events_processed
    assert stats.pulses_emitted == mono_stats.pulses_emitted
    assert stats.end_time == mono_stats.end_time
    assert now == mono_now
    assert windows >= 1


def test_single_shard_runs_in_one_window():
    circuit = _chain()
    plan = plan_partition(circuit, 1)
    stats, _now, recordings, windows = _sharded_side(_chain(), plan, jobs=1)
    assert windows == 1  # no cuts: nothing bounds the horizon
    assert stats.pulses_emitted > 0
    assert all(recordings.values())


def test_until_caps_the_merged_clock():
    circuit = _chain()
    plan = plan_partition(circuit, 2)
    with ShardSimulator(_chain(), plan, jobs=1) as sharded:
        sharded.schedule_train("entry", "a", STIMULUS)
        stats = sharded.run(until=10_000)
    assert stats.end_time == 10_000
    assert sharded.now <= 10_000


#: Cell state plus each NoC link's drop counter and in-flight flits.
LINK_ATTRS = STATE_ATTRS + ("drops", "_departures")


def _assert_matches_monolithic(build, plan, entry, stimulus, jobs):
    """The sharded run equals a monolithic sealed run of the NoC circuit in
    recordings, totals, clock, per-cell and per-link state, and drops."""
    mono = build_noc_circuit(build(), plan)
    sim = Simulator(mono, kernel="sealed")
    sim.schedule_train(mono[entry], "a", stimulus)
    stats = sim.run()
    with ShardSimulator(build(), plan, jobs=jobs) as sharded:
        sharded.schedule_train(entry, "a", stimulus)
        merged = sharded.run()
        recordings = sharded.recordings()
        drops = sharded.noc_drops()
        state = sharded.state(LINK_ATTRS)
    assert recordings == {
        tap.probe.label: list(tap.probe.times)
        for taps in mono._taps.values()
        for tap in taps
    }
    assert merged.events_processed == stats.events_processed
    assert merged.pulses_emitted == stats.pulses_emitted
    assert merged.end_time == stats.end_time
    assert sharded.now == sim.now
    assert drops == {cut.link: mono[cut.link].drops for cut in plan.cuts}
    assert state == {
        element.name: tuple(
            _freeze(getattr(element, attr, None)) for attr in LINK_ATTRS
        )
        for element in mono.elements
    }
    return drops


def test_noc_drops_are_counted_per_link():
    circuit = _chain()
    # A depth-1 FIFO with a huge serialization delay backs up immediately.
    plan = plan_partition(
        circuit, 2, link=LinkSpec(serialization_fs=200_000, fifo_depth=1)
    )
    for jobs in (1, 2):
        drops = _assert_matches_monolithic(
            _chain, plan, "entry", STIMULUS, jobs
        )
        assert set(drops) == {cut.link for cut in plan.cuts}
        assert sum(drops.values()) > 0


EPOCH_FS = 50_000


def _late_emitter():
    """``entry -> mem``, an RL memory cell emitting one epoch after its
    input, whose output fans out to ``tail`` and ``side``, both probed."""
    circuit = Circuit("late")
    entry = circuit.add(Jtl("entry"))
    mem = circuit.add(RlMemoryCell("mem", epoch_fs=EPOCH_FS))
    circuit.connect(entry, "q", mem, "in", delay=100)
    for name, delay in (("tail", 300), ("side", 700)):
        sink = circuit.add(Jtl(name))
        circuit.connect(mem, "out", sink, "a", delay=delay)
        circuit.probe(sink, "q")
    return circuit


def _late_plan(link):
    """Cut both wires out of ``mem``: two links fed by one source port."""
    wires = netlist_description(_late_emitter())["wires"]
    cuts = []
    for index, wire in enumerate(wires):
        if wire["from"] == "mem.out":
            cuts.append(CutWire(
                wire_index=index, link=f"noc{len(cuts)}", source=wire["from"],
                sink=wire["to"], delay_fs=wire["delay_fs"], source_shard=0,
                sink_shard=1, hops=1, traffic_hi=1,
            ))
    assignment = {"entry": 0, "mem": 0, "tail": 1, "side": 1}
    return ShardPlan("late", 2, assignment, cuts, link=link)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "link",
    [
        LinkSpec(serialization_fs=1_000, hop_latency_fs=2_000, fifo_depth=2),
        # Arrivals 30 ps apart behind 40 ps flit slots: the FIFO overflows.
        LinkSpec(serialization_fs=40_000, hop_latency_fs=0, fifo_depth=1),
    ],
)
def test_arrivals_tapped_past_the_horizon_carry_over(link, jobs):
    plan = _late_plan(link)
    assert len(plan.cuts) == 2
    # The memory cell emits one epoch late, past every window's horizon.
    assert plan.lookahead_fs < EPOCH_FS
    stimulus = list(range(0, 600_000, 30_000))
    drops = _assert_matches_monolithic(
        _late_emitter, plan, "entry", stimulus, jobs
    )
    assert (sum(drops.values()) > 0) == (link.fifo_depth == 1)


def test_wide_fabric_shards_compile_monotonic():
    circuit, heads = wide_fabric()
    plan = plan_partition(circuit, 2, link=WIDE_LINK,
                          entry_points=[(head, "a") for head in heads])
    assert plan.cuts
    with ShardSimulator(circuit, plan, jobs=1) as sharded:
        for host in sharded._hosts:
            # No shard kernel holds a NoC link, so none runs a call opcode.
            assert host._host.circuit._compiled.monotonic


def test_stimulus_validation():
    plan = plan_partition(_chain(), 2)
    sharded = ShardSimulator(_chain(), plan, jobs=1)
    try:
        with pytest.raises(ConfigurationError):
            sharded.schedule_input("nope", "a", 0)
        with pytest.raises(ConfigurationError):
            sharded.schedule_input("entry", "nope", 0)
        with pytest.raises(SimulationError):
            sharded.schedule_input("entry", "a", -1)
        sharded.schedule_input("entry", "a", 0)
        sharded.run()
        with pytest.raises(SimulationError):
            sharded.schedule_input("entry", "a", 1)  # single-shot engine
        with pytest.raises(SimulationError):
            sharded.run()
    finally:
        sharded.close()
    sharded.close()  # idempotent


def test_jobs_auto_resolves():
    plan = plan_partition(_chain(), 2)
    with ShardSimulator(_chain(), plan, jobs="auto") as sharded:
        assert sharded.jobs >= 1
    with pytest.raises(ConfigurationError):
        ShardSimulator(_chain(), plan, jobs="many")


def test_state_merges_across_shards():
    circuit = _chain()
    plan = plan_partition(circuit, 2)
    mono = build_noc_circuit(circuit, plan)
    sim = Simulator(mono, kernel="sealed")
    sim.schedule_train(mono["entry"], "a", STIMULUS)
    sim.run()
    mono_state = {
        element.name: getattr(element, "state", None)
        for element in mono.elements
        if type(element).__name__ == "Tff"
    }
    with ShardSimulator(_chain(), plan, jobs=1) as sharded:
        sharded.schedule_train("entry", "a", STIMULUS)
        sharded.run()
        state = sharded.state(("state",))
    tff_state = {
        name: frozen[0] for name, frozen in state.items() if name in mono_state
    }
    assert tff_state == mono_state
