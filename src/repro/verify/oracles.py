"""The conformance oracle matrix.

Every oracle takes a :class:`~repro.verify.spec.NetlistSpec`, builds fresh
circuits from it, and checks one invariant that must hold for *any* legal
netlist.  Differential oracles compare two executions of the same circuit
(reference vs sealed kernel, traced vs untraced, probed vs probe-free);
metamorphic oracles compare executions of two *related* circuits whose
outputs are analytically linked (time-shifted stimulus, commuted merger
inputs, identity fault channels spliced into a wire, an export/import
round trip).

Oracles self-report applicability: a property that only holds in the
absence of tie-order-sensitive cells (see :data:`TIE_ORDER_SENSITIVE`)
declines circuits containing them rather than raising false alarms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.lint.api import lint_circuit
from repro.pulsesim.element import CellRole
from repro.pulsesim.simulator import Simulator
from repro.verify.spec import Built, NetlistSpec, build
from repro.verify import spec as specmod

#: Internal cell state compared after runs (superset across the library;
#: missing attributes read as None).  Every table cell keeps its whole
#: state in ``state``; a timed one adds its ``_last_emit`` timer and its
#: counter (``collisions``, ``hazard_events``).  Cell state is the
#: sharpest oracle: parity, dead-time filtering, and store/readout races
#: are all order-sensitive, so any divergence in the event total order
#: shows up.
STATE_ATTRS: Tuple[str, ...] = ("state", "collisions", "hazard_events",
                                "_last_emit")

#: Cells for which equal-(time, priority) pulses on *different* input
#: ports steer observably different outputs depending on engine-assigned
#: sequence numbers.  Transformations that add or remove events (channel
#: splices) legitimately perturb that order, so order-sensitive circuits
#: are out of scope for those oracles.
TIE_ORDER_SENSITIVE = frozenset({"Bff", "Dff2", "Mux", "Demux"})

#: The time-shift applied by the shift-equivariance oracle (fs).
SHIFT_DELTA = 7_000

#: Lanes used by the batch-differential oracle.  Lane ``k`` replays the
#: stimulus minus its last ``k`` pulses, so lane masks diverge from the
#: first stateful cell onward — small enough to stay fast, varied enough
#: to exercise mask splitting.
BATCH_LANES = 4


@dataclass
class OracleResult:
    """Outcome of one oracle on one spec."""

    oracle: str
    applicable: bool
    ok: bool
    detail: str = ""


def state_snapshot(built: Built) -> Dict[str, tuple]:
    """Internal cell state keyed by element name (comparable by-name
    across transformed circuits that add or remove helper cells)."""
    return {
        element.name: tuple(
            _freeze(getattr(element, attr, None)) for attr in STATE_ATTRS
        )
        for element in built.circuit.elements
    }


def _freeze(value):
    return tuple(sorted(value.items())) if isinstance(value, dict) else value


def run_built(built: Built, stimulus, kernel: Optional[str] = None,
              trace=None) -> Dict:
    """Drive a built circuit and snapshot everything comparable.

    Mixes the single-pulse and batched scheduling paths exactly like the
    kernel differential suite, so both entry points stay covered.
    """
    sim = Simulator(built.circuit, kernel=kernel, trace=trace)
    for time in stimulus[:3]:
        sim.schedule_input(built.entry, "a", time)
    sim.schedule_train(built.entry, "a", stimulus[3:])
    stats = sim.run()
    return {
        "recordings": [list(probe.times) for probe in built.probes],
        "events": stats.events_processed,
        "pulses": stats.pulses_emitted,
        "end_time": stats.end_time,
        "max_queue_depth": stats.max_queue_depth,
        "now": sim.now,
        "state": state_snapshot(built),
    }


def _first_difference(left: Dict, right: Dict) -> str:
    for key in left:
        if left[key] != right[key]:
            return f"{key}: {left[key]!r} != {right[key]!r}"
    return "identical"


def _compare(name: str, left: Dict, right: Dict,
             keys: Optional[Tuple[str, ...]] = None) -> OracleResult:
    if keys is not None:
        left = {key: left[key] for key in keys}
        right = {key: right[key] for key in keys}
    if left == right:
        return OracleResult(name, True, True)
    return OracleResult(name, True, False,
                        detail=_first_difference(left, right))


# -- oracles -------------------------------------------------------------------
def _lost_pulses(built: Built, state: Dict[str, tuple]) -> Dict[str, int]:
    """Collisions per dead-time merger, from a :func:`state_snapshot`."""
    index = STATE_ATTRS.index("collisions")
    return {
        element.name: state[element.name][index]
        for element in built.circuit.elements
        if element.has_role(CellRole.MERGER)
        and getattr(element, "dead_time", 0) > 0
        and state[element.name][index]
    }


def oracle_lint_clean(spec: NetlistSpec) -> OracleResult:
    """Generated circuits must pass every lint rule with zero diagnostics,
    and a single-wave run (one pulse into the entry at t = 0, the
    convention of lint's timing rules) must lose no pulse at a merger."""
    built = build(spec)
    report = lint_circuit(built.circuit,
                          entry_points=[(built.entry, "a")])
    if report.diagnostics:
        worst = report.diagnostics[0]
        return OracleResult(
            "lint-clean", True, False,
            detail=f"{len(report.diagnostics)} diagnostics, first: "
                   f"[{worst.rule}] {worst.message}",
        )
    lost = _lost_pulses(built, run_built(built, (0,))["state"])
    if lost:
        return OracleResult(
            "lint-clean", True, False,
            detail=f"no diagnostics, yet a single-wave run collides at "
                   f"{lost}",
        )
    return OracleResult("lint-clean", True, True)


def oracle_kernel_differential(spec: NetlistSpec) -> OracleResult:
    """Reference heap loop and compiled sealed kernel agree exactly."""
    reference = run_built(build(spec), spec.stimulus, kernel="reference")
    sealed = run_built(build(spec), spec.stimulus, kernel="sealed")
    return _compare("kernel-differential", reference, sealed)


def oracle_trace_transparency(spec: NetlistSpec) -> OracleResult:
    """A fully-tapped traced run is bit-identical to an untraced run."""
    from repro.trace import TraceSession

    untraced = run_built(build(spec), spec.stimulus)
    traced_built = build(spec)
    session = TraceSession(traced_built.circuit)
    traced = run_built(traced_built, spec.stimulus, trace=session)
    return _compare("trace-transparency", untraced, traced)


def oracle_probe_transparency(spec: NetlistSpec) -> OracleResult:
    """Attaching one more recorder does not disturb existing observers."""
    baseline = run_built(build(spec), spec.stimulus)
    probed = build(spec)
    # Tap a *consumed* output (unconsumed ones already carry recorders):
    # the sink of the last cell's first input, or the entry's q1.
    if spec.cells:
        slot = spec.cells[-1].inputs[0].source
    else:
        slot = 0
    element, port = probed.pool[slot]
    from repro.pulsesim.probe import PulseRecorder

    probed.circuit.probe(element, port, probe=PulseRecorder("verify:extra"))
    extra = run_built(probed, spec.stimulus)
    return _compare("probe-transparency", baseline, extra)


def oracle_time_shift(spec: NetlistSpec) -> OracleResult:
    """Shifting all stimulus by Δ shifts every recording and the horizon
    by exactly Δ and changes nothing else (time-translation symmetry)."""
    base = run_built(build(spec), spec.stimulus)
    shifted_spec = specmod.shift_stimulus(spec, SHIFT_DELTA)
    shifted = run_built(build(shifted_spec), shifted_spec.stimulus)
    expected = dict(base)
    expected["recordings"] = [
        [time + SHIFT_DELTA for time in timeline]
        for timeline in base["recordings"]
    ]
    expected["end_time"] = base["end_time"] + SHIFT_DELTA
    expected["now"] = base["now"] + SHIFT_DELTA
    expected["state"] = _shift_state(base["state"], SHIFT_DELTA)
    return _compare("time-shift", expected, shifted)


def _shift_state(state: Dict[str, tuple], delta: int) -> Dict[str, tuple]:
    """Displace absolute-time state (a timed cell's last-emit timestamp)
    by ``delta``; everything else is time-translation invariant."""
    index = STATE_ATTRS.index("_last_emit")
    shifted = {}
    for name, values in state.items():
        values = list(values)
        if isinstance(values[index], int):
            values[index] += delta
        shifted[name] = tuple(values)
    return shifted


def _merger_indices(spec: NetlistSpec) -> List[int]:
    return [
        index for index, cell in enumerate(spec.cells)
        if cell.kind in ("Merger", "IdealMerger")
    ]


def oracle_merger_commutativity(spec: NetlistSpec) -> OracleResult:
    """Swapping which wires feed a merger's two inputs changes nothing."""
    mergers = _merger_indices(spec)
    if not mergers:
        return OracleResult("merger-commutativity", False, True,
                            detail="no merger cells")
    base = run_built(build(spec), spec.stimulus)
    for index in mergers:
        swapped_spec = specmod.swap_cell_inputs(spec, index)
        swapped = run_built(build(swapped_spec), swapped_spec.stimulus)
        result = _compare("merger-commutativity", base, swapped)
        if not result.ok:
            result.detail = f"merger c{index}: {result.detail}"
            return result
    return OracleResult("merger-commutativity", True, True)


def _identity_oracle(name: str, kind: str, params,
                     spec: NetlistSpec) -> OracleResult:
    if not spec.cells:
        return OracleResult(name, False, True, detail="no wires to splice")
    if any(cell.kind in TIE_ORDER_SENSITIVE for cell in spec.cells):
        return OracleResult(
            name, False, True,
            detail="circuit contains tie-order-sensitive cells",
        )
    base = run_built(build(spec), spec.stimulus)
    spliced_spec = specmod.splice_cell(spec, len(spec.cells) - 1, 0, kind,
                                       params=params)
    spliced = run_built(build(spliced_spec), spliced_spec.stimulus)
    # The channel adds events and its own element, so only the original
    # observers, cell states, and the time horizon are comparable.
    channel_name = f"c{len(spec.cells) - 1}"  # spliced before the last cell
    base_cmp = {"recordings": base["recordings"], "state": base["state"],
                "end_time": base["end_time"]}
    spliced_cmp = {
        "recordings": spliced["recordings"],
        "state": _renamed_without_channel(spliced["state"], channel_name,
                                          len(spec.cells)),
        "end_time": spliced["end_time"],
    }
    return _compare(name, base_cmp, spliced_cmp)


def _renamed_without_channel(state: Dict[str, tuple], channel: str,
                             original_cells: int) -> Dict[str, tuple]:
    """Map spliced-circuit cell names back to base-circuit names.

    The channel sits at index ``original_cells - 1``; the original last
    cell shifted to index ``original_cells``.  Every other name is stable.
    """
    renamed = {}
    for name, snapshot in state.items():
        if name == channel:
            continue  # the identity channel itself has no counterpart
        if name == f"c{original_cells}":
            renamed[f"c{original_cells - 1}"] = snapshot
        else:
            renamed[name] = snapshot
    return renamed


def oracle_drop_identity(spec: NetlistSpec) -> OracleResult:
    """``DropChannel(drop_rate=0)`` spliced into a wire is a no-op."""
    return _identity_oracle("drop-identity", "DropChannel",
                            (("drop_rate", 0.0),), spec)


def oracle_jitter_identity(spec: NetlistSpec) -> OracleResult:
    """``JitterChannel(std_fs=0)`` spliced into a wire is a no-op."""
    return _identity_oracle("jitter-identity", "JitterChannel",
                            (("std_fs", 0),), spec)


def oracle_export_import(spec: NetlistSpec) -> OracleResult:
    """describe → import → describe is byte-stable and the re-imported
    circuit replays the exact pulse timelines on the probed ports."""
    from repro.pulsesim.export import import_netlist, netlist_description

    built = build(spec)
    description = netlist_description(built.circuit)
    rebuilt_circuit = import_netlist(description)
    redescription = netlist_description(rebuilt_circuit)
    if redescription != description:
        return OracleResult(
            "export-import", True, False,
            detail="netlist description changed across import round trip",
        )
    base = run_built(built, spec.stimulus)
    # Align the re-imported recorders with the base circuit's pool-order
    # probes by label (default PulseRecorder labels are "<cell>.<port>").
    by_label = {
        tap.probe.label: tap.probe
        for taps in rebuilt_circuit._taps.values()
        for tap in taps
    }
    rebuilt = Built(
        circuit=rebuilt_circuit,
        entry=rebuilt_circuit[specmod.ENTRY_NAME],
        probes=[by_label[probe.label] for probe in built.probes],
        pool=[],
    )
    rerun = run_built(rebuilt, spec.stimulus)
    return _compare("export-import", base, rerun,
                    keys=("recordings", "events", "pulses", "end_time",
                          "max_queue_depth", "now"))


def oracle_static_soundness(spec: NetlistSpec) -> OracleResult:
    """Simulation must stay inside the abstract interpreter's bounds.

    The circuit is abstract-interpreted with the *exact* stimulus
    abstraction (repro.analyze stimulus mode), then simulated once; for
    every probed output the observed pulse count, every timestamp, and
    every consecutive spacing must respect the static bounds, and the
    kernel's peak queue depth must not exceed the static bound.  A
    dead-time merger the analyzer left without a finding must not have
    collided.  Any escape disproves a transfer function's soundness
    argument (or, for a single-pulse stimulus, the single-wave arrival
    sets behind a merger proof).
    """
    from repro.analyze import analyze_circuit
    from repro.analyze.domain import INF, describe

    built = build(spec)
    observed = run_built(built, spec.stimulus)

    # Fresh build for analysis: the analyzer only reads structure, but a
    # virgin circuit keeps the contract obvious (and the pools align —
    # builds are deterministic).
    fresh = build(spec)
    analysis = analyze_circuit(
        fresh.circuit,
        stimulus={(fresh.entry, "a"): list(spec.stimulus)},
    )
    consumed = specmod.used_sources(spec)
    probe_slots = [
        slot for slot in range(len(fresh.pool)) if slot not in consumed
    ]
    for slot, times in zip(probe_slots, observed["recordings"]):
        element, port = fresh.pool[slot]
        bounds = analysis.output_bounds(element, port)
        where = f"{element.name}.{port}"
        if not bounds.contains_count(len(times)):
            return OracleResult(
                "static-soundness", True, False,
                detail=(f"{where}: {len(times)} pulse(s) outside "
                        f"{describe(bounds)}"),
            )
        for time in times:
            if not bounds.contains_time(time):
                return OracleResult(
                    "static-soundness", True, False,
                    detail=(f"{where}: pulse at {time} fs outside "
                            f"{describe(bounds)}"),
                )
        for earlier, later in zip(times, times[1:]):
            if bounds.gap < INF and later - earlier < bounds.gap:
                return OracleResult(
                    "static-soundness", True, False,
                    detail=(f"{where}: spacing {later - earlier} fs below "
                            f"{describe(bounds)}"),
                )
    depth_bound = analysis.queue_depth_bound
    if observed["max_queue_depth"] > depth_bound:
        return OracleResult(
            "static-soundness", True, False,
            detail=(f"max_queue_depth {observed['max_queue_depth']} exceeds "
                    f"static bound {depth_bound}"),
        )
    flagged = {f.element for f in analysis.report.by_check("merger-collision")}
    lost = {name: count
            for name, count in _lost_pulses(built, observed["state"]).items()
            if name not in flagged}
    if lost:
        return OracleResult(
            "static-soundness", True, False,
            detail=f"collisions at mergers the analyzer proved: {lost}",
        )
    return OracleResult("static-soundness", True, True)


def oracle_batch_differential(spec: NetlistSpec) -> OracleResult:
    """The vectorized batch kernel agrees with the scalar sealed kernel
    lane by lane.

    One :class:`~repro.pulsesim.batch.BatchSimulator` runs
    :data:`BATCH_LANES` lanes whose stimulus trains are distinct prefixes
    of the spec's stimulus; each lane is then compared against a fresh
    scalar sealed run of the same prefix on recordings (sorted, as
    :meth:`~repro.pulsesim.batch.BatchSimulator.port_times` returns
    them), per-lane event/pulse/end-time stats, and the full internal
    cell-state snapshot.  Queue depth is excluded: the master queue's
    depth has no per-lane meaning.
    """
    from repro.pulsesim.batch import BatchSimulator

    built = build(spec)
    trains = [
        list(spec.stimulus[: max(0, len(spec.stimulus) - k)])
        for k in range(BATCH_LANES)
    ]
    sim = BatchSimulator(built.circuit, batch=BATCH_LANES)
    sim.schedule_lane_trains(built.entry, "a", trains)
    stats = sim.run()
    tap_ports = {
        id(tap.probe): (tap.source, port)
        for (_eid, port), taps in built.circuit._taps.items()
        for tap in taps
    }
    for lane, train in enumerate(trains):
        scalar = run_built(build(spec), train, kernel="sealed")
        scalar_side = {
            "recordings": [sorted(times) for times in scalar["recordings"]],
            "events": scalar["events"],
            "pulses": scalar["pulses"],
            "end_time": scalar["end_time"],
            "state": scalar["state"],
        }
        batch_side = {
            "recordings": [
                sim.port_times(*tap_ports[id(probe)], lane)
                for probe in built.probes
            ],
            "events": int(stats.events[lane]),
            "pulses": int(stats.pulses[lane]),
            "end_time": int(stats.end_time[lane]),
            "state": {
                element.name: tuple(
                    _freeze(sim.element_attr(element, attr, lane, None))
                    for attr in STATE_ATTRS
                )
                for element in built.circuit.elements
            },
        }
        result = _compare("batch-differential", scalar_side, batch_side)
        if not result.ok:
            result.detail = f"lane {lane}: {result.detail}"
            return result
    return OracleResult("batch-differential", True, True)


def oracle_shard_differential(spec: NetlistSpec) -> OracleResult:
    """The partitioned multi-process run is bit-identical to a monolithic
    sealed run of the same NoC-augmented circuit.

    The spec's circuit is cut into two fabric shards
    (:func:`repro.shard.partition.plan_partition`), every cut wire routed
    through an explicit NoC link; the monolithic sealed kernel then runs
    the augmented circuit whole while a
    :class:`~repro.shard.engine.ShardSimulator` runs it as two worker
    processes under conservative window synchronization.  Probed
    timelines, event/pulse totals, the time horizon, per-cell state, and
    per-link drop counters must all match exactly.  ``max_queue_depth``
    is excluded — per-shard queues cannot reproduce the monolithic
    high-water mark.  Declines tie-order-sensitive circuits (worker event
    sequence numbers legitimately differ) and jitter channels (their RNG
    draw order is the event order).
    """
    from repro.shard import ShardSimulator, build_noc_circuit, plan_partition

    if not spec.cells:
        return OracleResult("shard-differential", False, True,
                            detail="too few cells to cut")
    if any(cell.kind in TIE_ORDER_SENSITIVE or cell.kind == "JitterChannel"
           for cell in spec.cells):
        return OracleResult(
            "shard-differential", False, True,
            detail="circuit contains event-order-sensitive cells",
        )
    base = build(spec)
    plan = plan_partition(base.circuit, 2,
                          entry_points=[(base.entry, "a")])

    mono_circuit = build_noc_circuit(base.circuit, plan)
    mono = Simulator(mono_circuit, kernel="sealed")
    entry = mono_circuit[specmod.ENTRY_NAME]
    for time in spec.stimulus[:3]:
        mono.schedule_input(entry, "a", time)
    mono.schedule_train(entry, "a", spec.stimulus[3:])
    stats = mono.run()
    mono_side = {
        "recordings": {
            tap.probe.label: list(tap.probe.times)
            for taps in mono_circuit._taps.values()
            for tap in taps
        },
        "events": stats.events_processed,
        "pulses": stats.pulses_emitted,
        "end_time": stats.end_time,
        "now": mono.now,
        "state": {
            element.name: tuple(
                _freeze(getattr(element, attr, None)) for attr in STATE_ATTRS
            )
            for element in mono_circuit.elements
        },
        "drops": {
            element.name: int(getattr(element, "drops", 0))
            for element in mono_circuit.elements
            if CellRole.NOC in getattr(element, "ROLES", frozenset())
        },
    }

    with ShardSimulator(base.circuit, plan, jobs=2) as sharded:
        sharded.schedule_train(specmod.ENTRY_NAME, "a", list(spec.stimulus))
        merged = sharded.run()
        shard_side = {
            "recordings": sharded.recordings(),
            "events": merged.events_processed,
            "pulses": merged.pulses_emitted,
            "end_time": merged.end_time,
            "now": sharded.now,
            "state": sharded.state(STATE_ATTRS),
            "drops": sharded.noc_drops(),
        }
    result = _compare("shard-differential", mono_side, shard_side)
    if result.ok:
        result.detail = (f"{plan.num_shards} shards, {len(plan.cuts)} "
                         f"cut(s), lookahead {plan.lookahead_fs} fs")
    return result


def oracle_synth_differential(spec: NetlistSpec) -> OracleResult:
    """The synthesis frontend compiles a random dataflow spec to a
    lint-clean netlist whose simulation decodes to the reference
    evaluation of the spec.

    The dataflow spec is derived deterministically from the netlist
    spec's content hash, so the campaign's spec stream doubles as the
    synthesis fuzz stream and corpus replay reproduces the exact
    program.  Checks, in order: zero lint diagnostics (with the compiled
    entry points declared), decoded output levels equal to the reference
    evaluation on both kernels, and zero merger collisions (the delay
    balancer's no-pulse-loss guarantee).
    """
    import random as _random

    from repro.synth import compile_spec, lint_program, random_spec

    rng = _random.Random(f"usfq-synth-oracle/{spec.key()}")
    dataflow = random_spec(rng, name=f"synth_{spec.key()}")
    program = compile_spec(dataflow)
    report = lint_program(program)
    if report.diagnostics:
        worst = report.diagnostics[0]
        return OracleResult(
            "synth-differential", True, False,
            detail=f"lint: {len(report.diagnostics)} diagnostics, first: "
                   f"[{worst.rule}] {worst.message}",
        )
    expected = {o.ref: o.expected_level for o in program.outputs}
    for kernel in ("reference", "sealed"):
        outcome = program.simulate(kernel=kernel)
        if outcome.levels != expected:
            return OracleResult(
                "synth-differential", True, False,
                detail=f"{kernel}: decoded {outcome.levels}, reference "
                       f"evaluation expects {expected}",
            )
        if outcome.collisions:
            return OracleResult(
                "synth-differential", True, False,
                detail=f"{kernel}: {outcome.collisions} merger "
                       "collision(s) — balancing lost pulses",
            )
    return OracleResult(
        "synth-differential", True, True,
        detail=f"{len(dataflow.nodes)} nodes -> "
               f"{program.stats['cells']} cells, "
               f"{program.stats['jj']} JJ",
    )


#: The full matrix, in canonical execution order.
ORACLES: Dict[str, Callable[[NetlistSpec], OracleResult]] = {
    "lint-clean": oracle_lint_clean,
    "kernel-differential": oracle_kernel_differential,
    "batch-differential": oracle_batch_differential,
    "trace-transparency": oracle_trace_transparency,
    "probe-transparency": oracle_probe_transparency,
    "time-shift": oracle_time_shift,
    "merger-commutativity": oracle_merger_commutativity,
    "drop-identity": oracle_drop_identity,
    "jitter-identity": oracle_jitter_identity,
    "export-import": oracle_export_import,
    "synth-differential": oracle_synth_differential,
    "static-soundness": oracle_static_soundness,
    "shard-differential": oracle_shard_differential,
}


def run_oracle(name: str, spec: NetlistSpec) -> OracleResult:
    """Run one oracle by name (corpus replay uses this)."""
    try:
        oracle = ORACLES[name]
    except KeyError:
        from repro.errors import VerificationError

        known = ", ".join(ORACLES)
        raise VerificationError(
            f"unknown oracle {name!r}; known oracles: {known}"
        ) from None
    return oracle(spec)
