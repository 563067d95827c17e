"""Shared Hypothesis strategies and runners for simulator conformance.

Two netlist generators live in this repo, on purpose:

* :func:`netlists` (here) — free-form layered DAGs that exploit the
  simulator's permissiveness (implicit fanout, arbitrary probe subsets)
  to stress engine paths a physical netlist never reaches;
* :func:`repro.verify.generate_spec` — lint-clean-by-construction
  circuits for the conformance harness; :func:`verify_specs` wraps it as
  a Hypothesis strategy so property tests can draw legal specs too.

A third generator, :func:`repro.synth.random_spec`, draws *dataflow*
specs (programs, not netlists) for the synthesis frontend;
:func:`dataflow_specs` wraps it the same way.

Both the kernel-differential and the trace-transparency suites use
:func:`run_case` so "everything comparable about a run" is defined in
exactly one place (mirroring ``repro.verify.oracles.run_built``).
"""

from hypothesis import strategies as st

from repro.cells.interconnect import IdealMerger, Jtl, Merger, Splitter
from repro.cells.logic import FirstArrival, Inverter, LastArrival
from repro.cells.storage import Dff, Dff2, Ndro
from repro.cells.toggle import Tff, Tff2
from repro.core.balancer import Balancer, BffRoutingUnit
from repro.encoding.epoch import EpochSpec
from repro.pulsesim import Circuit, Simulator
from repro.synth.generator import random_spec, spec_rng
from repro.verify.generator import example_rng, generate_spec, profile
from repro.verify.oracles import STATE_ATTRS

#: Lanes used by the batch-vs-sealed property suites (kept small: every
#: lane is re-run under the scalar kernel for comparison).
BATCH_LANES = 4

#: (factory, input ports, output ports).  Every cell here is a
#: :class:`~repro.pulsesim.element.TableCell` (untimed, or timed: the
#: mergers and the two routing cells), which both fast kernels run
#: inline, so each drawn netlist runs on all three kernels.
CELLS = [
    (Jtl, ("a",), ("q",)),
    (Splitter, ("a",), ("q1", "q2")),
    (Merger, ("a", "b"), ("q",)),
    (IdealMerger, ("a", "b"), ("q",)),
    (Ndro, ("set", "reset", "clk"), ("q",)),
    (Dff, ("d", "clk"), ("q",)),
    (Dff2, ("a", "c1", "c2"), ("y1", "y2")),
    (Tff, ("a",), ("q",)),
    (Tff2, ("a",), ("q1", "q2")),
    (Inverter, ("a", "clk"), ("q",)),
    (LastArrival, ("reset", "a", "b"), ("q",)),
    (FirstArrival, ("reset", "a", "b"), ("q",)),
    (Balancer, ("a", "b"), ("y1", "y2")),
    (BffRoutingUnit, ("a", "b"), ("c1_a", "c2_a", "c1_b", "c2_b")),
]


@st.composite
def netlists(draw):
    """A random layered DAG plus stimulus: ``(build, stimulus)``.

    Returns a zero-argument ``build()`` so each kernel run gets an
    identical, freshly constructed circuit (cells are stateful objects —
    they cannot be shared between the two runs without a reset, and
    rebuilding also exercises compilation from scratch).
    """
    n_layers = draw(st.integers(1, 3))
    layer_specs = []  # per layer: list of (cell_index, per-input wiring)
    n_outputs = 2  # the entry splitter's q1/q2
    for _ in range(n_layers):
        width = draw(st.integers(1, 3))
        cells = []
        for _ in range(width):
            cell_index = draw(st.integers(0, len(CELLS) - 1))
            inputs = CELLS[cell_index][1]
            wiring = [
                (draw(st.integers(0, n_outputs - 1)),
                 draw(st.integers(0, 3)) * 500)  # wire delay in {0..1500}
                for _ in inputs
            ]
            cells.append((cell_index, wiring))
        layer_specs.append(cells)
        n_outputs += sum(len(CELLS[ci][2]) for ci, _ in cells)
    probe_mask = draw(st.integers(0, (1 << n_outputs) - 1))
    stimulus = draw(
        st.lists(st.integers(0, 40), min_size=1, max_size=25).map(
            lambda raw: [t * 1_000 for t in raw]  # many duplicate times
        )
    )

    def build():
        circuit = Circuit("differential")
        entry = circuit.add(Splitter("entry"))
        outputs = [(entry, "q1"), (entry, "q2")]
        for layer, cells in enumerate(layer_specs):
            for position, (cell_index, wiring) in enumerate(cells):
                factory, inputs, outs = CELLS[cell_index]
                cell = circuit.add(factory(f"c{layer}_{position}"))
                for port, (source_index, delay) in zip(inputs, wiring):
                    source, source_port = outputs[source_index]
                    circuit.connect(source, source_port, cell, port,
                                    delay=delay)
                outputs.extend((cell, out) for out in outs)
        probes = []
        for index, (element, port) in enumerate(outputs):
            if probe_mask >> index & 1 or index == len(outputs) - 1:
                probes.append(circuit.probe(element, port))
        return circuit, entry, probes

    return build, stimulus


@st.composite
def verify_specs(draw, profile_name="smoke"):
    """A lint-clean :class:`repro.verify.NetlistSpec` via the harness's
    own generator, driven by a Hypothesis-drawn substream index."""
    seed = draw(st.integers(0, 2**32 - 1))
    example = draw(st.integers(0, 9999))
    return generate_spec(example_rng(seed, example), profile(profile_name))


@st.composite
def dataflow_specs(draw, max_nodes=7):
    """A valid :class:`repro.synth.DataflowSpec` via the synthesis
    frontend's own generator, driven by a Hypothesis-drawn substream
    index (mirrors :func:`verify_specs`)."""
    seed = draw(st.integers(0, 2**32 - 1))
    example = draw(st.integers(0, 9999))
    return random_spec(spec_rng(seed, example), max_nodes=max_nodes)


def run_case(build, stimulus, kernel, trace_factory=None):
    """Run one generated case and snapshot everything comparable.

    ``trace_factory`` (circuit -> session), when given, attaches a trace
    session before the run; the returned dict is identical in shape either
    way so traced and untraced runs compare with ``==``.
    """
    circuit, entry, probes = build()
    session = trace_factory(circuit) if trace_factory is not None else None
    sim = Simulator(circuit, kernel=kernel, trace=session)
    # Mix single-pulse scheduling with the batched path.
    for time in stimulus[:3]:
        sim.schedule_input(entry, "a", time)
    sim.schedule_train(entry, "a", stimulus[3:])
    stats = sim.run()
    assert stats.wall_s >= 0.0  # the one non-deterministic stat: not compared
    if session is not None:
        assert sum(s.cohort for s in session.health) == stats.events_processed
    state = [
        tuple(getattr(element, attr, None) for attr in STATE_ATTRS)
        for element in circuit.elements
    ]
    return {
        "recordings": [list(probe.times) for probe in probes],
        "events": stats.events_processed,
        "pulses": stats.pulses_emitted,
        "end_time": stats.end_time,
        "max_queue_depth": stats.max_queue_depth,
        "now": sim.now,
        "state": state,
    }


def lane_trains(stimulus, batch=BATCH_LANES):
    """Per-lane stimulus prefixes: lane ``k`` drops the last ``k`` pulses.

    Distinct prefixes make lane masks diverge at the first stateful cell,
    which is exactly what the batch kernel's mask algebra must survive.
    """
    return [
        list(stimulus[: max(0, len(stimulus) - lane)]) for lane in range(batch)
    ]


def scalar_comparable(result):
    """Project a :func:`run_case` result onto the batch-comparable keys.

    Recordings are sorted (the batch kernel's ``port_times`` returns them
    sorted) and the master-queue-only stats (``max_queue_depth``,
    ``now``) are dropped.
    """
    return {
        "recordings": [sorted(times) for times in result["recordings"]],
        "events": result["events"],
        "pulses": result["pulses"],
        "end_time": result["end_time"],
        "state": result["state"],
    }


def run_case_batch(build, stimulus, batch=BATCH_LANES):
    """Run per-lane stimulus prefixes under the batch kernel.

    Returns one dict per lane, shaped like :func:`scalar_comparable` of a
    scalar :func:`run_case` on :func:`lane_trains`'s matching prefix.
    """
    from repro.pulsesim.batch import BatchSimulator

    circuit, entry, probes = build()
    tap_ports = {
        id(tap.probe): (tap.source, port)
        for (_eid, port), taps in circuit._taps.items()
        for tap in taps
    }
    sim = BatchSimulator(circuit, batch=batch)
    sim.schedule_lane_trains(entry, "a", lane_trains(stimulus, batch))
    stats = sim.run()
    lanes = []
    for lane in range(batch):
        lanes.append({
            "recordings": [
                sim.port_times(*tap_ports[id(probe)], lane)
                for probe in probes
            ],
            "events": int(stats.events[lane]),
            "pulses": int(stats.pulses[lane]),
            "end_time": int(stats.end_time[lane]),
            "state": [
                tuple(
                    sim.element_attr(element, attr, lane, None)
                    for attr in STATE_ATTRS
                )
                for element in circuit.elements
            ],
        })
    return lanes


def dpu_batch_counts(dpu, a_rows, b_rows):
    """A DPU's operand rows as lanes of one batch-kernel dispatch on its
    circuit: row ``i``'s count, as ``dpu.run_counts(a_rows[i], b_rows[i])``
    gives it, sits in lane ``i``."""
    from repro.core.multiplier import SETUP_FS
    from repro.pulsesim.batch import BatchSimulator

    epoch, block = dpu.epoch, dpu.block

    def stream(count):
        return [SETUP_FS + t for t in dpu.streams.times_for_count(count)]

    sim = BatchSimulator(dpu.circuit, batch=len(a_rows))
    for lane in range(dpu.length):
        sim.schedule_train(*block.input(f"epoch{lane}"), [0])
        sim.schedule_lane_trains(
            *block.input(f"b{lane}"), [stream(row[lane]) for row in b_rows]
        )
        if dpu.bipolar:
            sim.schedule_train(
                *block.input(f"refclk{lane}"), stream(epoch.n_max)
            )
        sim.schedule_lane_trains(
            *block.input(f"a{lane}"),
            [
                [SETUP_FS + epoch.slot_time(row[lane])]
                if row[lane] < epoch.n_max else []
                for row in a_rows
            ],
        )
    sim.run()
    return sim.port_counts(*block.output("y")).tolist()


@st.composite
def codec_cases(draw):
    """``(EpochSpec, value, epoch_index)`` for codec round-trip properties.

    Values are drawn on the representable grid ``k / n_max`` (exact in
    binary floating point for bits <= 10), so ``encode -> decode`` must be
    lossless; ``slot_fs >= 2`` leaves room for the full-scale sentinel at
    ``end - 1``.  Used by the scalar encode -> JTL-sim -> decode round
    trip and reused by the batch-kernel differential suite.
    """
    bits = draw(st.integers(1, 8))
    slot_fs = draw(st.sampled_from([2, 10, 500, 12_000]))
    epoch = EpochSpec(bits=bits, slot_fs=slot_fs)
    value = draw(st.integers(0, epoch.n_max)) / epoch.n_max
    epoch_index = draw(st.integers(0, 5))
    return epoch, value, epoch_index


def jtl_pipe(n_stages=2, stage_delay=40, wire_delay=10):
    """A probed JTL pipeline: ``(circuit, entry, probe, latency_fs)``.

    The canonical transport fixture for codec round trips: pulses arrive
    at the probe exactly ``latency_fs`` after injection, so decoding uses
    ``time - latency_fs``.
    """
    circuit = Circuit("pipe")
    stages = [circuit.add(Jtl(f"j{i}", delay=stage_delay)) for i in range(n_stages)]
    for left, right in zip(stages, stages[1:]):
        circuit.connect(left, "q", right, "a", delay=wire_delay)
    probe = circuit.probe(stages[-1], "q")
    latency = n_stages * stage_delay + (n_stages - 1) * wire_delay
    return circuit, stages[0], probe, latency
