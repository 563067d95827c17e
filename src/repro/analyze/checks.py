"""Derived checks over a converged :class:`FixpointResult`.

Each check turns the abstract per-port bounds into findings or derived
whole-circuit quantities:

* ``epoch-overflow`` — an observed/fanned-out emission window extends
  past the computing epoch (with a per-path witness chain);
* ``merger-collision`` — a merger's combined input stream cannot be
  proven to keep pulses a dead-time apart (and conversely: a proof of
  collision-freedom when it can).  When the interval windows overlap,
  the proof is retried on the exact single-wave arrival sets
  (:func:`cell_arrival_sets`);
* ``dead-path`` — a wired input or an observed output that provably
  never carries a pulse under the declared stimulus;
* peak scheduler queue-depth bound — every scheduled event is either a
  stimulus pulse or one emission travelling one fan-out wire, so the
  total over all wires bounds the bucket queue's live population;
* switching-energy envelope — ``E_switch x JJ x pulse-count`` summed
  per cell, bracketing the measured-activity numbers from repro.trace.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.analyze.domain import (
    INF,
    PulseBounds,
    describe,
    superpose_all,
)
from repro.analyze.engine import FixpointResult
from repro.analyze.report import Finding
from repro.encoding.epoch import EpochSpec
from repro.lint.report import Severity
from repro.models import technology as tech
from repro.pulsesim.element import CellRole, Element, TableCell

#: Witness chains stop after this many hops (enough for every shipped
#: block; keeps pathological graphs from flooding the report).
WITNESS_LIMIT = 16


def _fmt(value: int) -> str:
    return "inf" if value >= INF else str(value)


def witness_chain(fx: FixpointResult, element: Element,
                  port: str) -> Tuple[str, ...]:
    """Greedy worst-path reconstruction ending at ``element.port``.

    From the flagged emission, repeatedly steps to the driven input port
    with the latest possible arrival, then across the fan-in wire whose
    contribution realises it, until a stimulus entry (or a loop/limit)
    is reached.  The chain reads stimulus-first.
    """
    chain: List[str] = []
    visited = set()
    current, out_port = element, port
    while len(chain) < WITNESS_LIMIT:
        bounds = fx.output_bounds(current, out_port)
        chain.append(f"{current.name}.{out_port}  {describe(bounds)}")
        if id(current) in visited:
            chain.append("(feedback loop)")
            break
        visited.add(id(current))
        inputs = fx.inputs.get(id(current), {})
        driven = [(p, b) for p, b in inputs.items() if not b.is_none]
        if not driven:
            break
        in_port, _ = max(driven, key=lambda kv: kv[1].t_max)
        entry = fx.entry_bounds.get((id(current), in_port))
        best_wire = None
        best_t = -1
        for wire in fx.graph.fan_in(current, in_port):
            contrib = fx.output_bounds(
                wire.source, wire.source_port).shift(wire.delay)
            if not contrib.is_none and contrib.t_max > best_t:
                best_wire, best_t = wire, contrib.t_max
        if best_wire is None or (
            entry is not None and not entry.is_none and entry.t_max >= best_t
        ):
            chain.append(
                f"{current.name}.{in_port}  stimulus "
                f"{describe(entry) if entry is not None else 'none'}"
            )
            break
        current, out_port = best_wire.source, best_wire.source_port
    chain.reverse()
    return tuple(chain)


# -- fused output scan ---------------------------------------------------------
class OutputScan:
    """Everything one pass over the converged outputs yields.

    Attributes:
        overflow: Epoch-overflow findings (empty when ``epoch`` is None).
        slack_fs: Epoch budget minus the latest checked emission
            (negative = overflow; ``None`` when nothing is observed, a
            window is unbounded, or no epoch was given).
        queue_bound: Static peak-queue-depth bound (:data:`INF` if
            unbounded).
        events_lo / events_hi: JJ switching-event envelope.
    """

    __slots__ = ("overflow", "slack_fs", "queue_bound",
                 "events_lo", "events_hi")

    def __init__(self, overflow: List[Finding], slack_fs: Optional[int],
                 queue_bound: int, events_lo: int, events_hi: int) -> None:
        self.overflow = overflow
        self.slack_fs = slack_fs
        self.queue_bound = queue_bound
        self.events_lo = events_lo
        self.events_hi = events_hi


def scan_outputs(fx: FixpointResult,
                 epoch: Optional[EpochSpec] = None) -> OutputScan:
    """Derive every per-output quantity in a single sweep.

    *Epoch overflow* — an emission window whose upper edge exceeds the
    computing epoch, on any *checked* port (observed or fanning out).

    *Queue depth* — every event the kernel ever holds is either an
    injected stimulus pulse or one emission travelling one fan-out wire,
    so the stimulus count plus the sum over wires of the driving port's
    count bound the peak live population (and, a fortiori, the
    instantaneous queue depth the stats report).

    *Switching events* — convention matches repro.trace's
    measured-activity accounting: each pulse emitted by a cell switches
    that cell's ``jj_count`` junctions once.  Stimulus entry pulses are
    charged to the receiving cell by its own emissions, so no separate
    entry term is needed.

    Plain integer accumulation with one clamp at the end: INF is 10^15,
    so any sum touching an INF term lands at or above INF and clamps
    back to the sentinel (Python ints do not overflow).
    """
    budget = epoch.duration_fs if epoch is not None else None
    findings: List[Finding] = []
    seen = set()
    latest: Optional[int] = None
    unbounded = False
    queue = 0
    for bounds in fx.entry_bounds.values():
        queue += bounds.n_hi
    events_lo = 0
    events_hi = 0
    observed = fx.graph.observed
    out_wires = fx.graph.out_wires
    outputs = fx.outputs
    for element in fx.circuit.elements:
        eid = id(element)
        out = outputs.get(eid)
        if not out:
            continue
        jj = getattr(element, "jj_count", 0)
        for port, bounds in out.items():
            n_hi = bounds.n_hi
            if not n_hi:
                continue
            if jj:
                events_lo += jj * bounds.n_lo
                events_hi += jj * n_hi
            wires = out_wires.get((eid, port))
            if wires:
                queue += len(wires) * n_hi
            if budget is None or (wires is None and (eid, port) not in observed):
                continue
            t_max = bounds.t_max
            if t_max >= INF:
                unbounded = True
            elif latest is None or t_max > latest:
                latest = t_max
            if t_max <= budget or eid in seen:
                continue
            seen.add(eid)
            assert epoch is not None
            findings.append(
                Finding(
                    check="epoch-overflow",
                    severity=Severity.ERROR,
                    message=(
                        f"emission window closes at {_fmt(t_max)} fs, "
                        f"past the {epoch.bits}-bit epoch ({budget} fs = "
                        f"2^{epoch.bits} x {epoch.slot_fs} fs); up to "
                        f"{_fmt(n_hi)} pulse(s) spill into the next "
                        "epoch"
                    ),
                    element=element.name,
                    port=port,
                    witness=witness_chain(fx, element, port),
                )
            )
    slack = (None if budget is None or unbounded or latest is None
             else budget - latest)
    return OutputScan(
        findings,
        slack,
        INF if queue >= INF else queue,
        INF if events_lo >= INF else events_lo,
        INF if events_hi >= INF else events_hi,
    )


# -- single-wave arrival sets -------------------------------------------------
#: The distinct times at which pulses may reach one endpoint when every
#: entry port receives one pulse at t = 0, at most one pulse per time;
#: ``None`` when unknown.
ArrivalSet = Optional[FrozenSet[int]]

#: Arrival sets larger than this are treated as unknown.
SET_CAP = 64

_EMPTY: FrozenSet[int] = frozenset()


def union_arrivals(sets: Iterable[ArrivalSet], shift: int = 0) -> ArrivalSet:
    """The union of arrival sets, displaced by ``shift``.

    Unknown when an operand is unknown, when two operands share a time
    (two pulses may coincide), or when the union outgrows
    :data:`SET_CAP`.
    """
    union: Set[int] = set()
    size = 0
    for times in sets:
        if times is None:
            return None
        union.update(times)
        size += len(times)
    if len(union) != size or size > SET_CAP:
        return None
    return frozenset(t + shift for t in union)


def spaced(times: ArrivalSet, dead_time: int) -> bool:
    """Whether a known arrival set keeps its pulses a dead time apart."""
    if times is None:
        return False
    ordered = sorted(times)
    return all(b - a >= dead_time for a, b in zip(ordered, ordered[1:]))


def cell_arrival_sets(element: Element,
                      inputs: Mapping[str, ArrivalSet]) -> Dict[str, ArrivalSet]:
    """One cell's output arrival sets from its input arrival sets.

    A table cell's output carries the inputs whose ``TRANSITIONS`` rows
    list it, shifted by the cell delay (for a merger or balancer: all of
    them).  A ``DropChannel`` passes its input through.  Any other cell's
    outputs are unknown.
    """
    delay = getattr(element, "delay", 0)
    if isinstance(element, TableCell):
        table = element.TRANSITIONS
        return {
            out: union_arrivals(
                (inputs[port] for port, rows in table.items()
                 if any(out in row[1] for row in rows)),
                delay,
            )
            for out in element.output_names
        }
    if type(element).__name__ == "DropChannel":
        return {"q": inputs["a"]}
    return dict.fromkeys(element.output_names)


def _entry_set(bounds: PulseBounds) -> ArrivalSet:
    if bounds.is_none:
        return _EMPTY
    if bounds.n_hi == 1 and bounds.t_min == bounds.t_max:
        return frozenset((bounds.t_min,))
    return None


def _input_sets(fx: FixpointResult,
                outputs: Mapping[int, Dict[str, ArrivalSet]],
                element: Element) -> Dict[str, ArrivalSet]:
    """One element's input arrival sets from the output sets known so
    far.  A port whose bounds carry no pulse gets the empty set; a source
    not computed yet (a feedback loop) reads as unknown."""
    eid = id(element)
    sets: Dict[str, ArrivalSet] = {}
    for port in element.input_names:
        if fx.input_bounds(element, port).is_none:
            sets[port] = _EMPTY
            continue
        entry = fx.entry_bounds.get((eid, port))
        parts: List[ArrivalSet] = [] if entry is None else [_entry_set(entry)]
        for wire in fx.graph.fan_in(element, port):
            if fx.output_bounds(wire.source, wire.source_port).is_none:
                continue
            source = outputs.get(id(wire.source))
            parts.append(None if source is None else union_arrivals(
                (source[wire.source_port],), wire.delay))
        sets[port] = union_arrivals(parts)
    return sets


def _single_wave_inputs(fx: FixpointResult) -> Dict[int, Dict[str, ArrivalSet]]:
    """Every element's input arrival sets, by element id, computed in
    topological order (a feedback loop's residue last)."""
    inputs: Dict[int, Dict[str, ArrivalSet]] = {}
    outputs: Dict[int, Dict[str, ArrivalSet]] = {}
    for element in fx.graph.topological_order()[0]:
        sets = inputs[id(element)] = _input_sets(fx, outputs, element)
        outputs[id(element)] = cell_arrival_sets(element, sets)
    return inputs


# -- merger collisions ---------------------------------------------------------
def merger_collision_findings(
    fx: FixpointResult,
) -> Tuple[List[Finding], int, int]:
    """Per merger: prove collision-freedom or flag the offending streams.

    A merger is proved when its superposed input bounds keep pulses a
    dead time apart, or else when its single-wave input arrival sets are
    all known, pairwise disjoint, and spaced a dead time apart.

    Returns ``(findings, proved, checked)`` where ``checked`` counts
    mergers with a nonzero dead time and at least one live input.
    """
    findings: List[Finding] = []
    proved = 0
    checked = 0
    waves: Optional[Dict[int, Dict[str, ArrivalSet]]] = None
    for element in fx.circuit.elements:
        if not element.has_role(CellRole.MERGER):
            continue
        dead_time = int(getattr(element, "dead_time", tech.T_MERGER_DEAD_FS))
        if dead_time <= 0:
            continue
        inputs = fx.inputs.get(id(element), {})
        live = [(p, b) for p, b in sorted(inputs.items()) if not b.is_none]
        if not live:
            continue
        checked += 1
        combined = superpose_all(b for _, b in live)
        if combined.n_hi <= 1 or combined.gap >= dead_time:
            proved += 1
            continue
        if waves is None:
            waves = _single_wave_inputs(fx)
        sets = waves[id(element)]
        if spaced(union_arrivals(sets[p] for p, _ in live), dead_time):
            proved += 1
            continue
        findings.append(
            Finding(
                check="merger-collision",
                severity=Severity.WARNING,
                message=_collision_message(live, dead_time),
                element=element.name,
                port=live[-1][0],
                witness=tuple(
                    f"{element.name}.{p}  {describe(b)}" for p, b in live
                ),
            )
        )
    return findings, proved, checked


def _collision_message(live: List[Tuple[str, PulseBounds]],
                       dead_time: int) -> str:
    for port, bounds in live:
        if bounds.n_hi > 1 and bounds.gap < dead_time:
            return (
                f"stream on input {port} may space pulses "
                f"{_fmt(bounds.gap)} fs apart (< dead time {dead_time} fs); "
                "back-to-back pulses collide inside the merger"
            )
    for i, (port_a, a) in enumerate(live):
        for port_b, b in live[i + 1:]:
            separation = _window_separation(a, b)
            if separation < dead_time:
                return (
                    f"inputs {port_a} and {port_b} may arrive "
                    f"{separation} fs apart (< dead time {dead_time} fs); "
                    "coincident pulses collide and one is lost "
                    "(paper Fig 5b)"
                )
    return (
        f"combined input stream cannot be proven to keep pulses "
        f"{dead_time} fs apart"
    )


def _window_separation(a: PulseBounds, b: PulseBounds) -> int:
    if a.t_max < b.t_min:
        return b.t_min - a.t_max
    if b.t_max < a.t_min:
        return a.t_min - b.t_max
    return 0


# -- dead paths ----------------------------------------------------------------
def dead_path_findings(fx: FixpointResult) -> List[Finding]:
    """Wired inputs and observed outputs that provably never pulse."""
    findings: List[Finding] = []
    for element in fx.circuit.elements:
        for port in element.input_names:
            if not fx.graph.fan_in(element, port):
                continue
            if not fx.input_bounds(element, port).is_none:
                continue
            findings.append(
                Finding(
                    check="dead-path",
                    severity=Severity.WARNING,
                    message=(
                        "wired input can never receive a pulse under the "
                        "declared stimulus; dead logic or missing drive"
                    ),
                    element=element.name,
                    port=port,
                )
            )
        for port in element.output_names:
            if not fx.graph.is_observed(element, port):
                continue
            if not fx.output_bounds(element, port).is_none:
                continue
            findings.append(
                Finding(
                    check="dead-path",
                    severity=Severity.WARNING,
                    message=(
                        "observed output can never emit under the declared "
                        "stimulus"
                    ),
                    element=element.name,
                    port=port,
                )
            )
    return findings


# -- scheduler queue bound -----------------------------------------------------
def queue_depth_bound(fx: FixpointResult) -> int:
    """Static upper bound on the event kernel's peak queue depth."""
    return scan_outputs(fx).queue_bound


# -- switching-energy envelope -------------------------------------------------
def switching_event_envelope(fx: FixpointResult) -> Tuple[int, int]:
    """``[lo, hi]`` bound on JJ switching events for one run."""
    scan = scan_outputs(fx)
    return scan.events_lo, scan.events_hi


def energy_from_events(
    events_lo: int, events_hi: int,
) -> Tuple[float, Optional[float]]:
    """Convert an event envelope to joules (``None`` hi = unbounded)."""
    lo = events_lo * tech.E_SWITCH_J
    hi = None if events_hi >= INF else events_hi * tech.E_SWITCH_J
    return lo, hi


def switching_energy_envelope_j(
    fx: FixpointResult,
) -> Tuple[float, Optional[float]]:
    """``[lo, hi]`` switching energy in joules (``None`` = unbounded)."""
    return energy_from_events(*switching_event_envelope(fx))
