"""Microbenchmarks of the library's hot paths.

Not tied to a specific paper figure; these track the cost of the pulse
simulator kernel, the structural building blocks, and the vectorised FIR —
the knobs that determine how large a U-SFQ design this reproduction can
simulate.
"""

import numpy as np

from repro.cells.interconnect import IdealMerger, Jtl
from repro.core.counting import CountingNetwork
from repro.core.dpu import DpuModel
from repro.core.fir import UnaryFirFilter
from repro.core.multiplier import UnipolarMultiplier
from repro.dsp.firdesign import design_lowpass
from repro.encoding.epoch import EpochSpec
from repro.pulsesim import Circuit, Simulator
from repro.pulsesim.schedule import uniform_stream_times


#: The stream-fabric scenario: slot-aligned JTL pipelines feeding a merger
#: reduction tree, every lane driven by a dense (~50% duty) uniform pulse
#: stream on the same slot grid.  This is the paper's stream-compute
#: regime — SIMD-like lanes sharing one epoch clock — and the workload the
#: sealed kernel is built for (heavy same-time contention).  The same
#: netlist+stimulus runs under both kernels so the regression gate can
#: compare them ratio-wise, independent of the host machine's speed.
_FABRIC_LANES = 32
_FABRIC_DEPTH = 4
_FABRIC_TRAINS = [
    uniform_stream_times(2_000, 4_096, 12_000)
    for _ in range(_FABRIC_LANES)
]


def _build_stream_fabric():
    """The fabric netlist: JTL chains into an IdealMerger reduction tree.

    Returns ``(circuit, heads, probe)``; shared with the batch-kernel
    benchmarks in ``test_batch_kernel.py`` so the scalar and vectorized
    kernels are measured on the same topology.
    """
    circuit = Circuit(f"fabric{_FABRIC_LANES}x{_FABRIC_DEPTH}")
    heads = []
    tails = []
    for lane in range(_FABRIC_LANES):
        stage = circuit.add(Jtl(f"l{lane}_0"))
        heads.append(stage)
        for depth in range(1, _FABRIC_DEPTH):
            nxt = circuit.add(Jtl(f"l{lane}_{depth}"))
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


def _run_stream_fabric(kernel, direct=False):
    """Build the fabric fresh (compile cost counts too) and run one epoch.

    ``direct=True`` bypasses the public ``run()`` dispatcher and calls the
    kernel's ``_run`` hot loop straight — the yardstick for the tracing-off
    overhead gate.
    """
    circuit, heads, probe = _build_stream_fabric()
    sim = Simulator(circuit, kernel=kernel)
    for head, times in zip(heads, _FABRIC_TRAINS):
        sim.schedule_train(head, "a", times)
    stats = sim._run() if direct else sim.run()
    return stats.events_processed, len(probe.times)


def test_stream_fabric_reference_kernel(benchmark):
    """The dense stream fabric under the reference heap loop (the yardstick)."""
    events, merged = benchmark(_run_stream_fabric, "reference")
    assert merged == _FABRIC_LANES * len(_FABRIC_TRAINS[0])
    assert events > 200_000


def test_stream_fabric_sealed_kernel(benchmark):
    """Same fabric under the sealed kernel; the gate checks the speedup ratio."""
    events, merged = benchmark(_run_stream_fabric, "sealed")
    assert merged == _FABRIC_LANES * len(_FABRIC_TRAINS[0])
    assert events > 200_000


def test_stream_fabric_sealed_hotloop(benchmark):
    """Same fabric, calling the sealed ``_run`` loop directly.

    Tracks the raw hot loop — ``test_stream_fabric_sealed_kernel`` minus
    the public ``run()``'s is-a-trace-session-installed dispatch — in the
    baseline history.  The hard ≤2% bound on that dispatch is asserted by
    ``check_regression.py --max-trace-overhead``, which re-measures the
    two paths interleaved in one process (sequential benchmark blocks sit
    in different host-load windows, too noisy for a 2% comparison).
    """
    events, merged = benchmark(_run_stream_fabric, "sealed", True)
    assert merged == _FABRIC_LANES * len(_FABRIC_TRAINS[0])
    assert events > 200_000


def test_pulse_level_multiplier_epoch(benchmark):
    """One full 8-bit epoch through the structural NDRO multiplier."""
    mult = UnipolarMultiplier(EpochSpec(bits=8))

    def run():
        return mult.run_counts(128, 200)

    assert benchmark(run) == 100


def test_counting_network_16to1(benchmark):
    """A 16:1 balancer tree digesting 6-bit streams."""
    network = CountingNetwork(16)
    times = [uniform_stream_times(n, 64, 12_000) for n in range(3, 64, 4)]

    def run():
        return network.run(times)

    assert benchmark(run) > 0


def test_dpu_functional_batch(benchmark):
    """Vectorised 64-lane DPU over a 1k-sample batch."""
    model = DpuModel(EpochSpec(bits=10), 64, bipolar=True)
    rng = np.random.default_rng(0)
    slots = rng.integers(0, 1024, size=(1_000, 64))
    counts = rng.integers(0, 1024, size=(1_000, 64))

    def run():
        return model.output_counts_batch(slots, counts)

    out = benchmark(run)
    assert out.shape == (1_000,)


def test_pulse_kernel_scale_12bit_epoch(benchmark):
    """~8k-event epochs: the kernel-throughput guard for larger designs."""
    mult = UnipolarMultiplier(EpochSpec(bits=12))

    def run():
        return mult.run_counts(4_096, 2_048)

    assert benchmark(run) == 2_048


def test_unary_fir_256taps_throughput(benchmark):
    """256-tap, 12-bit unary FIR over 2000 samples (the SDR-scale config)."""
    h = design_lowpass(256, 3_000.0, 20_000.0)
    fir = UnaryFirFilter(EpochSpec(bits=12), h, exact_counting=False)
    x = np.sin(np.linspace(0, 100, 2_000)) * 0.8

    def run():
        return fir.process(x)

    out = benchmark(run)
    assert out.shape == x.shape
