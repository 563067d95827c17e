"""Property-based differential test: sealed kernel vs reference loop.

Hypothesis builds random layered netlists from the full standard-cell
library (plus generic-dispatch cells), drives them with random stimulus
trains — heavy on simultaneous events to stress tie-breaking — and runs
the same circuit under ``kernel="reference"`` and ``kernel="sealed"``,
the latter on both of its loops: the native one (``_sealed.c``, where it
builds) and the Python one.  The runs must agree *exactly*: every probe
recording (order included), all simulation stats, and every cell's
internal state.  Internal cell state is the sharpest oracle:
balancer/TFF parity, merger dead-time
filtering, and NDRO/DFF stores are all order-sensitive, so any divergence
in the ``(time, priority, sequence)`` total order shows up as a state or
recording mismatch.

The netlist strategy and run snapshotter live in :mod:`tests.strategies`,
shared with the trace-transparency suite and mirrored by the standalone
fuzzing harness in :mod:`repro.verify`.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pulsesim import Simulator, kernel
from tests.strategies import netlists, run_case


def _python_loop():
    return mock.patch.object(kernel, "_native", None)


@settings(max_examples=60, deadline=None)
@given(netlists())
def test_sealed_kernel_matches_reference(case):
    build, stimulus = case
    reference = run_case(build, stimulus, "reference")
    sealed = run_case(build, stimulus, "sealed")
    assert sealed == reference
    with _python_loop():
        assert run_case(build, stimulus, "sealed") == reference


@settings(max_examples=20, deadline=None)
@given(netlists(), st.integers(0, 30))
def test_sealed_kernel_matches_reference_with_resume(case, cut):
    """Same property across a run(until=...) boundary."""
    build, stimulus = case
    horizon = cut * 1_000

    def run_split(kernel):
        circuit, entry, probes = build()
        sim = Simulator(circuit, kernel=kernel)
        sim.schedule_train(entry, "a", stimulus)
        sim.run(until=horizon)
        partial = [list(probe.times) for probe in probes]
        stats = sim.run()
        return (partial, [list(p.times) for p in probes],
                stats.events_processed, stats.pulses_emitted, stats.end_time,
                stats.max_queue_depth)

    reference = run_split("reference")
    assert run_split("sealed") == reference
    with _python_loop():
        assert run_split("sealed") == reference
