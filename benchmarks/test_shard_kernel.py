"""Multi-fabric sharding benchmarks and the parallel-speedup floor.

The shard engine exists to put idle host cores behind one queue-saturated
circuit: the partitioner cuts the fabric into K shards joined by temporal
NoC links, and each shard's sealed kernel runs in its own worker process
under conservative window synchronization.  These benchmarks drive a
wide column fabric (8 deep JTL columns into a merger reduction tree)
monolithically and at K in {1, 2, 4, 8} with one worker process per
shard, so ``check_regression.py`` can derive the wall-clock speedup from
the run JSON (``--min-shard-speedup``, default 2.5x at K=4).
``test_wide_fabric_uncut`` times the same fabric without links on one
sealed kernel, the alternative a sharded run has to beat; no gate pairs
it.

The gate is CPU-aware: every benchmark records ``os.cpu_count()`` in
``extra_info["cpus"]``, and the checker only enforces the floor for K
values the recording host could actually run in parallel — a 1-CPU
container still *runs* everything (correctness and sync overhead are
still tracked), it just cannot demonstrate speedup.

The NoC link here is deliberately high-latency / deep-FIFO
(``_LINK``): lookahead is the latency the partition *proves*, and a
250 ps link buys ~65 sync windows per epoch instead of ~650, which is
the knob docs/performance.md's cost model is about.
"""

import os

from repro.cells.interconnect import IdealMerger, Jtl
from repro.pulsesim import Circuit, Simulator
from repro.pulsesim.schedule import uniform_stream_times
from repro.shard import LinkSpec, ShardSimulator, build_noc_circuit, plan_partition

_COLUMNS = 8
_DEPTH = 64
_PULSES = 3_000
_N_MAX = 4_096
_SLOT_FS = 4_000
_SHARD_COUNTS = (1, 2, 4, 8)

#: High-lookahead link: 250 ps minimum latency per hop keeps the window
#: count low, and the 192-flit FIFO absorbs the ~46 flits a saturated
#: column keeps in flight across one cut.
_LINK = LinkSpec(serialization_fs=1_000, hop_latency_fs=249_000, fifo_depth=192)

_TRAINS = [
    uniform_stream_times(_PULSES, _N_MAX, _SLOT_FS, start=137 * column)
    for column in range(_COLUMNS)
]


def _build_wide_fabric():
    """8 deep JTL columns feeding an IdealMerger reduction tree."""
    circuit = Circuit(f"wide{_COLUMNS}x{_DEPTH}")
    heads = []
    tails = []
    for column in range(_COLUMNS):
        stage = circuit.add(Jtl(f"col{column}_0"))
        heads.append(stage)
        for depth in range(1, _DEPTH):
            nxt = circuit.add(Jtl(f"col{column}_{depth}"))
            circuit.connect(stage, "q", nxt, "a", delay=500)
            stage = nxt
        tails.append((stage, "q"))
    level = 0
    while len(tails) > 1:
        merged = []
        for pair in range(0, len(tails), 2):
            merger = circuit.add(IdealMerger(f"m{level}_{pair // 2}"))
            circuit.connect(*tails[pair], merger, "a", delay=500)
            circuit.connect(*tails[pair + 1], merger, "b", delay=500)
            merged.append((merger, "q"))
        tails = merged
        level += 1
    probe = circuit.probe(*tails[0])
    return circuit, heads, probe


def _plan(num_shards):
    circuit, heads, _probe = _build_wide_fabric()
    return plan_partition(
        circuit, num_shards, link=_LINK,
        entry_points=[(head, "a") for head in heads],
    )


def _run_sharded(num_shards):
    plan = _plan(num_shards)
    circuit, heads, _probe = _build_wide_fabric()
    with ShardSimulator(circuit, plan, jobs=num_shards) as sharded:
        for head, times in zip(heads, _TRAINS):
            sharded.schedule_train(head.name, "a", times)
        stats = sharded.run()
        return stats, sharded.windows


def _run_mono():
    """The yardstick: the K=4 NoC-augmented circuit, whole, sealed kernel.

    The NoC links stay in — the sharded lanes run the *identical*
    workload, so the only variable is where the event loop executes.
    """
    plan = _plan(4)
    circuit, heads, _probe = _build_wide_fabric()
    noc_circuit = build_noc_circuit(circuit, plan)
    sim = Simulator(noc_circuit, kernel="sealed")
    for head, times in zip(heads, _TRAINS):
        sim.schedule_train(noc_circuit[head.name], "a", times)
    return sim.run()


def _run_uncut():
    """The best alternative to sharding: the same fabric without links on
    one sealed kernel, from construction to recordings."""
    circuit, heads, probe = _build_wide_fabric()
    sim = Simulator(circuit, kernel="sealed")
    for head, times in zip(heads, _TRAINS):
        sim.schedule_train(head, "a", times)
    stats = sim.run()
    return stats, list(probe.times)


def test_wide_fabric_uncut(benchmark):
    """The un-cut fabric on one sealed kernel: the yardstick a sharded run
    has to beat.  Its name matches no gate's pattern, so no gate pairs it."""
    stats, _times = benchmark.pedantic(_run_uncut, rounds=1, iterations=1)
    assert stats.events_processed > 1_000_000
    benchmark.extra_info["events"] = stats.events_processed
    benchmark.extra_info["cpus"] = os.cpu_count() or 1


def test_wide_fabric_shard_mono(benchmark):
    """The K=4 NoC-augmented fabric run whole by the sealed kernel."""
    stats = benchmark.pedantic(_run_mono, rounds=1, iterations=1)
    assert stats.events_processed > 1_000_000
    benchmark.extra_info["events"] = stats.events_processed
    benchmark.extra_info["cpus"] = os.cpu_count() or 1


def _shard_benchmark(benchmark, num_shards):
    stats, windows = benchmark.pedantic(
        _run_sharded, args=(num_shards,), rounds=1, iterations=1
    )
    assert stats.events_processed > 1_000_000
    benchmark.extra_info["events"] = stats.events_processed
    benchmark.extra_info["cpus"] = os.cpu_count() or 1
    benchmark.extra_info["shards"] = num_shards
    benchmark.extra_info["windows"] = windows
    return stats


def test_wide_fabric_shard_k1(benchmark):
    """K=1 sanity lane: one shard, no cuts, one window."""
    _shard_benchmark(benchmark, 1)


def test_wide_fabric_shard_k2(benchmark):
    _shard_benchmark(benchmark, 2)


def test_wide_fabric_shard_k4(benchmark):
    """The headline lane: 4 worker processes, gated at >= 2.5x."""
    _shard_benchmark(benchmark, 4)


def test_wide_fabric_shard_k8(benchmark):
    _shard_benchmark(benchmark, 8)
