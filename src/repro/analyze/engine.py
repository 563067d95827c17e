"""Worklist fixpoint over per-port pulse bounds.

The engine propagates :class:`~repro.analyze.domain.PulseBounds` from the
entry-point abstractions through the netlist:

* an input port's state is the *superposition* of its entry abstraction
  (if externally driven) and one contribution per in-wire — the driving
  output's bounds shifted by the wire delay;
* an element's output bounds are its transfer function
  (:func:`~repro.analyze.transfer.transfer_for`) applied to its input
  states;
* every change to an output propagates to the sinks of its fan-out wires,
  which re-enter the worklist.

The worklist is seeded in topological order (cyclic residue last, in
insertion order), so on acyclic netlists — the common case; storage
cells break feedback in real U-SFQ datapaths — every element is
evaluated exactly once and the result is the exact least fixpoint of the
transfer functions.  On cyclic netlists, per-element *widening* kicks in
after :data:`WIDEN_AFTER` revisits: any still-growing field jumps to its
absorbing value, so the loop converges in a bounded number of steps
while remaining a sound over-approximation.

This module is on the ``usfq-analyze`` fast path (the committed
benchmark pits it against a traced simulated epoch), hence the slightly
denser style: per-element wiring is flattened into tuples once and the
hot loop avoids re-deriving it from the graph on every visit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Set, Tuple

from repro.analyze.domain import NONE, PulseBounds, superpose, widen
from repro.analyze.transfer import TransferFn, transfer, transfer_for
from repro.errors import SimulationError
from repro.lint.graph import CircuitGraph
from repro.pulsesim.element import Element
from repro.pulsesim.netlist import Circuit

#: Element revisits before widening engages (loops only; DAG elements
#: converge in at most a handful of visits).
WIDEN_AFTER = 4

#: Hard iteration ceiling per element — a backstop, not a tuning knob;
#: widening guarantees convergence far below it.
MAX_VISITS = 64

#: An (element-id, port) endpoint key.
PortKey = Tuple[int, str]


class FixpointResult:
    """The converged abstract state of one circuit.

    Attributes:
        circuit: The analysed netlist.
        graph: The :class:`CircuitGraph` used for fan-in/fan-out indexes.
        entry_bounds: External stimulus abstraction per entry port.
        inputs: Per element id, the abstract stream at each input port.
        outputs: Per element id, the abstract stream at each output port
            (emission-side: cell delay included, wire delay not).
        iterations: Total element evaluations performed.
        widened: Element ids whose outputs were widened (feedback loops).
    """

    def __init__(self, circuit: Circuit, graph: CircuitGraph,
                 entry_bounds: Mapping[PortKey, PulseBounds]) -> None:
        self.circuit = circuit
        self.graph = graph
        self.entry_bounds: Dict[PortKey, PulseBounds] = dict(entry_bounds)
        self.inputs: Dict[int, Dict[str, PulseBounds]] = {}
        self.outputs: Dict[int, Dict[str, PulseBounds]] = {}
        self._elements: Optional[Dict[int, Element]] = None
        self.iterations = 0
        self.widened: Set[int] = set()

    @property
    def elements(self) -> Dict[int, Element]:
        """Element-id lookup, materialised on first use."""
        if self._elements is None:
            self._elements = {
                id(element): element for element in self.circuit.elements
            }
        return self._elements

    # -- lookups -------------------------------------------------------------
    def input_bounds(self, element: Element, port: str) -> PulseBounds:
        """Abstract arrival stream at one input port."""
        return self.inputs.get(id(element), {}).get(port, NONE)

    def output_bounds(self, element: Element, port: str) -> PulseBounds:
        """Abstract emission stream at one output port."""
        return self.outputs.get(id(element), {}).get(port, NONE)


#: Per-element evaluation record: ``(eid, element, transfer, in_ports,
#: out_ports)`` with ``in_ports`` = ((port, entry_key, wires), ...) where
#: ``wires`` = ((source_id, source_port, delay), ...), and ``out_ports``
#: = ((port, sink_ids), ...).
_PlanRecord = Tuple[
    int,
    Element,
    TransferFn,
    Tuple[Tuple[str, PortKey, Tuple[Tuple[int, str, int], ...]], ...],
    Tuple[Tuple[str, Tuple[int, ...]], ...],
]


#: Cached plan: record per element id (topological insertion order) plus
#: whether the netlist is acyclic (enables the straight-line sweep).
_Plan = Tuple[Dict[int, _PlanRecord], bool]

#: A converged state: ``(inputs, outputs, iterations, widened)``.
_State = Tuple[Dict[int, Dict[str, PulseBounds]],
               Dict[int, Dict[str, PulseBounds]], int, Set[int]]


def _build_plan(circuit: Circuit, graph: CircuitGraph) -> _Plan:
    """Flatten per-element wiring into tuples, in topological order."""
    in_index = graph.in_wires
    out_index = graph.out_wires
    records: Dict[int, _PlanRecord] = {}
    transfer_cache: Dict[type, TransferFn] = {}
    ordered, acyclic = graph.topological_order()
    for element in ordered:
        eid = id(element)
        kind = type(element)
        tfn = transfer_cache.get(kind)
        if tfn is None:
            tfn = transfer_cache[kind] = transfer_for(kind)
        in_ports = []
        for port in element.input_names:
            wires = in_index.get((eid, port))
            flat = (
                tuple((id(w.source), w.source_port, w.delay) for w in wires)
                if wires else ()
            )
            in_ports.append((port, (eid, port), flat))
        out_ports = []
        for port in element.output_names:
            wires = out_index.get((eid, port))
            sinks = tuple(id(w.sink) for w in wires) if wires else ()
            out_ports.append((port, sinks))
        records[eid] = (eid, element, tfn, tuple(in_ports), tuple(out_ports))
    return records, acyclic


def _plan_for(circuit: Circuit,
              graph: CircuitGraph) -> Tuple[_Plan, Dict[tuple, _State]]:
    """Plan and converged states for ``circuit``, cached by topology version.

    The plan depends only on the wiring (not on entry points, observed
    outputs, or stimulus), so it follows the compiled-kernel idiom: tag
    with ``Circuit._version`` — bumped on every structural change — and
    rebuild lazily on mismatch.  Next to it wait the converged states of
    this version, keyed by entry abstraction and transfer function, until
    the next analysis with the same key takes one over: lint and a
    following analyze of one netlist share one fixpoint, and the circuit
    does not keep it afterwards.  Like the compiled kernels, the cache
    assumes cell parameters stay as built.
    """
    version = circuit._version
    cached = getattr(circuit, "_pulseflow_plan", None)
    if cached is None or cached[0] != version:
        fresh: Dict[tuple, _State] = {}
        cached = (version, _build_plan(circuit, graph), fresh)
        circuit._pulseflow_plan = cached  # type: ignore[attr-defined]
    plan: _Plan = cached[1]
    states: Dict[tuple, _State] = cached[2]
    return plan, states


def fixpoint(circuit: Circuit, graph: CircuitGraph,
             entry_bounds: Mapping[PortKey, PulseBounds],
             widen_after: int = WIDEN_AFTER,
             transfer_fn: TransferFn = transfer) -> FixpointResult:
    """Run the worklist iteration to convergence and return the state.

    ``transfer_fn`` defaults to the sound real-time transfer; the epoch
    check passes :func:`~repro.analyze.transfer.epoch_relative_transfer`
    to re-anchor whole-epoch storage latencies.  A state converged by
    the previous analysis of this circuit version with the same entry
    abstraction, transfer function and widening threshold is taken over,
    not recomputed.
    """
    result = FixpointResult(circuit, graph, entry_bounds)
    entries = result.entry_bounds
    (plan, acyclic), states = _plan_for(circuit, graph)
    key = (frozenset(entries.items()), transfer_fn, widen_after)
    state = states.pop(key, None)
    if state is not None:
        result.inputs, result.outputs, result.iterations, result.widened = state
        return result
    all_inputs = result.inputs
    all_outputs = result.outputs
    widened = result.widened
    dispatch_direct = transfer_fn is transfer
    entries_get = entries.get
    outputs_get = all_outputs.get
    none = NONE

    if acyclic:
        # Straight-line sweep: the plan is in topological order, so one
        # evaluation per element reaches the exact least fixpoint — no
        # worklist, visit counting, widening, or change tracking needed.
        for eid, element, tfn, in_ports, out_ports in plan.values():
            inputs: Dict[str, PulseBounds] = {}
            for port, entry_key, wires in in_ports:
                state = entries_get(entry_key, none)
                for source_id, source_port, delay in wires:
                    contrib = outputs_get(source_id)
                    if contrib is None:
                        continue
                    bounds = contrib.get(source_port)
                    if bounds is None or not bounds[1]:
                        continue
                    shifted = bounds.shift(delay) if delay else bounds
                    state = (shifted if not state[1]
                             else superpose(state, shifted))
                inputs[port] = state
            all_inputs[eid] = inputs
            computed = (tfn if dispatch_direct else transfer_fn)(
                element, inputs)
            if len(computed) == len(out_ports):
                # Transfer functions key their (fresh) result dict by the
                # cell's output names, so matching sizes means matching
                # key sets — adopt the dict instead of rebuilding it.
                all_outputs[eid] = computed
            else:
                all_outputs[eid] = {
                    port: computed.get(port, none) for port, _ in out_ports
                }
        result.iterations = len(plan)
        states[key] = (all_inputs, all_outputs, result.iterations, widened)
        return result

    visits: Dict[int, int] = {}
    queued: Set[int] = set(plan)
    worklist: Deque[int] = deque(plan)
    iterations = 0

    while worklist:
        eid = worklist.popleft()
        queued.discard(eid)
        eid, element, tfn, in_ports, out_ports = plan[eid]
        count = visits.get(eid, 0) + 1
        visits[eid] = count
        iterations += 1
        if count > MAX_VISITS:  # pragma: no cover - widening backstop
            raise SimulationError(
                f"pulse-flow fixpoint failed to converge at {element!r} "
                f"after {MAX_VISITS} visits"
            )

        inputs = {}
        for port, entry_key, wires in in_ports:
            state = entries_get(entry_key, none)
            for source_id, source_port, delay in wires:
                contrib = outputs_get(source_id)
                if contrib is None:
                    continue
                bounds = contrib.get(source_port)
                if bounds is None or not bounds[1]:
                    continue
                shifted = bounds.shift(delay) if delay else bounds
                state = shifted if not state[1] else superpose(state, shifted)
            inputs[port] = state
        all_inputs[eid] = inputs
        computed = (tfn if dispatch_direct else transfer_fn)(element, inputs)
        old = outputs_get(eid)
        if old is None:
            old = {}
        new: Dict[str, PulseBounds] = {}
        changed: List[Tuple[int, ...]] = []
        for port, sinks in out_ports:
            fresh = computed.get(port, none)
            previous = old.get(port, none)
            if fresh != previous:
                if count > widen_after:
                    fresh = widen(previous, fresh)
                    if fresh != previous:
                        widened.add(eid)
                if fresh != previous and sinks:
                    changed.append(sinks)
            new[port] = fresh
        all_outputs[eid] = new

        for sinks in changed:
            for sink_id in sinks:
                if sink_id not in queued:
                    worklist.append(sink_id)
                    queued.add(sink_id)
    result.iterations = iterations
    states[key] = (all_inputs, all_outputs, iterations, widened)
    return result
