"""Compiled event kernel: sealed circuits, opcode programs, bucket queue.

Every figure and table of the reproduction funnels through the simulator's
event loop, so its constant factors bound how large a U-SFQ design we can
sweep.  The reference kernel (:class:`~repro.pulsesim.simulator.Simulator`)
pays for its flexibility on every single event: a bound-method ``handle``
call, attribute reads for the cell's delay, an ``Element.emit ->
Simulator.emit`` double dispatch, a probe lookup, a fanout dict lookup,
and a priority lookup per wire.  This module compiles all of that away
once per netlist:

* :func:`compile_circuit` translates each ``(element, input port)`` pair
  into a small *opcode program*: a flat list whose first entry is an
  integer kind and whose remaining entries are everything the kernel
  needs to execute the cell's response inline — pre-summed
  ``cell delay + wire delay`` offsets, the bound ``record`` methods of any
  probes on the output (empty for unprobed ports, so probe notification
  costs nothing there), and direct references to each sink's own program.
  Every :class:`~repro.pulsesim.element.TableCell` (the finite-state
  cells: JTL, splitter, NDRO, DFF/DFF2, TFF/TFF2, inverter, FA/LA, BFF,
  mux/demux, clocked gates, inhibit, and the timed mergers, balancer
  and BFF routing unit) runs inline, without a single Python method
  call.  A table port compiles by the shape of its rows: one state with
  one output on one unprobed wire -> ``DELAY1``, one state otherwise ->
  ``MULTI``; no output and one common next state -> ``STORE``; one
  output from exactly one state -> ``GUARD``; anything else -> the
  general ``TABLE`` opcode.  A timed port (rows picked by guard bits
  and state) compiles to ``WINDOW`` when it has one state and one guard
  inside which pulses are absorbed (the merger), else to ``TIMED``.
  Matching the shape keeps the common cells as cheap as hand-written
  opcodes.  Anything else — custom ``handle`` overrides (the NoC link,
  the integrator, the RL storage cells, the burst PNM), fault-injection
  channels — compiles to a generic *call* opcode that invokes the
  cell's ``handle`` exactly like the reference loop.

  Programs are mutable lists patched *in place* on recompile (e.g. when a
  probe is attached after events were scheduled), so queued events can
  never hold stale routing.

* Event sort keys are packed into a single integer,
  ``priority * 2**48 + sequence``, preserving the reference kernel's
  ``(time, priority, sequence)`` total order (time is the bucket key,
  and the packed key compares priority first because the sequence counter
  stays far below 2**48) while replacing tuple comparisons with single
  machine-int comparisons.

* :class:`SealedSimulator` runs those programs on a *native loop*:
  ``_sealed.c``, a C interpreter of the same opcode lists over an event
  heap it owns, which :mod:`repro.pulsesim.native` compiles with the
  interpreter's own compiler and headers the first time a sealed
  simulator is made, and caches under ``__pycache__/``.  A stimulus
  train goes onto that heap as one cursor.  Where the build fails (no
  compiler, no headers, an unwritable directory) the Python loop
  (:meth:`SealedSimulator._drain`) runs instead; both give the same
  results, and tests pick one by patching :data:`_native`.

* The Python loop replaces the single binary heap with a
  bucket/calendar queue keyed by the exact integer femtosecond timestamp:
  a dict of per-time buckets plus a small heap of *distinct* pending
  times.  A lone pending event at a time is stored as the bare entry (no
  list), so the common sparse case allocates nothing extra; buckets
  upgrade to a heap-ordered list on contention.  SFQ workloads are
  slot-aligned — pulse-stream stimuli, clock trains, and splitter fanout
  all land many events on the same femtosecond — so the run loop drains
  each bucket in an inner loop, paying the peek/causality machinery once
  per *distinct time* instead of once per event.  For sparse horizons
  (every timestamp distinct) the structure degrades to a plain heap of
  times, never worse than a small constant factor off the reference.
  ``schedule_train`` resolves the port's program and packed priority once
  and batch-inserts the whole stimulus train.  Single pulses scheduled
  from Python (``schedule_input``, ``emit``, generic cells' emissions)
  always land in this bucket queue; the native loop drains it into its
  heap when a run starts and after every generic-call opcode.

Because compilation snapshots cell timing (``delay`` and guard bounds such
as ``dead_time``) and port priorities, those must not be mutated after a
circuit is compiled; in this codebase they are constructor-set constants.

The sealed kernel is *semantically identical* to the reference loop: the
same ``(time, priority, sequence)`` total order, the same stats, and
byte-identical experiment output (locked by the differential property test
in ``tests/pulsesim/test_kernel_differential.py``, which runs both
loops).  Two deliberate divergences: on a causality violation the
reference kernel has already popped the offending event when it raises,
while the sealed kernel raises before popping, so the event stays queued;
the error and all counters are identical.  And the native loop holds
times, delays and packed keys as 64-bit integers: one outside that range
(say a wire delay of 2**70 fs, which ``import_netlist`` accepts) raises
:class:`~repro.errors.SimulationError`, where the Python loop and the
reference kernel carry Python's big ints.

Kernel selection::

    Simulator(circuit)                      # "auto": compiled fast path
    Simulator(circuit, kernel="sealed")     # seal the circuit, fast path
    Simulator(circuit, kernel="reference")  # the original heap loop

or process-wide via the ``REPRO_KERNEL`` environment variable, which
worker processes inherit.
"""

from __future__ import annotations

import os
import threading
import weakref
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.pulsesim import native
from repro.pulsesim.element import Element, TableCell
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.simulator import (
    SimulationStats,
    Simulator,
    _collectors,
)

#: Recognised kernel names, in documentation order.
KERNELS = ("auto", "reference", "sealed")

#: Environment variable consulted when ``Simulator(kernel=None)``.
KERNEL_ENV = "REPRO_KERNEL"

#: Packed sort keys are ``priority * _SEQ_SPAN + sequence``; the sequence
#: counter would need 2**48 events (years of wall clock) to overflow into
#: the priority bits.
_SEQ_SPAN = 1 << 48

_INF = float("inf")

# Opcode kinds, numbered in the run loop's compare order: the opcodes
# hottest on the shipped workloads (JTL delays, NDRO/inverter clocks,
# balancers, mergers) are tested first.  Table-cell ports pick theirs by
# row shape (see the module docstring and ``element.table_shape``).
_OP_DELAY1 = 0  # [0, kb, dly, nop]                   1 output, 1 wire, unprobed
_OP_GUARD = 1  # [1, cell, fire, fire_next, other_next, dq, taps, rows]
_OP_TIMED = 2  # [2, cell, ((bound, offset), ...), rows, counter]  timed table
_OP_WINDOW = 3  # [3, cell, bound, counter, dq, taps, rows]  one state, 1 guard
_OP_MULTI = 4  # [4, emissions]                      one state, any other fanout
_OP_STORE = 5  # [5, cell, state]                    no output, state <- constant
_OP_TABLE = 6  # [6, cell, ((next_state, emissions), ...)]  per-state rows
_OP_CALL = 7  # [7, handle, port]                    generic cell


#: The native loop module (``_sealed.c``), or None for the Python loop.
#: Loaded by :func:`_native_loop` when the first sealed simulator is made;
#: tests patch it to pick a loop.
_UNLOADED = object()
_native: Any = _UNLOADED
_native_lock = threading.Lock()


def _native_loop() -> Any:
    """The native loop module, built at most once per process on first
    use; None if it cannot be."""
    global _native
    if _native is _UNLOADED:
        with _native_lock:
            if _native is _UNLOADED:
                _native = native.try_load()
    return _native


def resolve_kernel(kernel: Optional[str]) -> str:
    """Normalise a kernel choice: explicit arg > ``REPRO_KERNEL`` > auto."""
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV) or "auto"
    if kernel not in KERNELS:
        known = ", ".join(KERNELS)
        raise ConfigurationError(f"unknown kernel {kernel!r}; known: {known}")
    return kernel


class CompiledTables:
    """Flat dispatch tables for one circuit at one topology version.

    Attributes:
        version: The circuit version these tables were built from.
        ports: ``id(element) -> {output_port -> (taps, fan)}`` — the
            *emission* view used by :meth:`SealedSimulator.emit` and the
            specialised emit closures of generic cells.  ``fan`` rows are
            ``(packed_priority_base, wire_delay, sink_program)``.
        inports: ``id(element) -> {input_port -> (packed_priority_base,
            program)}`` — the *arrival* view used to schedule stimulus.
        monotonic: True when the compiler proved no event can create
            another event at its *own* timestamp — every cell is inline
            (no generic ``handle`` that might emit with zero latency) and
            every cell delay + wire delay sum is positive.  The run loop
            then drains contended buckets with one ``sort`` and plain
            ``list.pop`` instead of a heap operation per event.
    """

    __slots__ = ("version", "ports", "inports", "monotonic")

    def __init__(
        self,
        version: int,
        ports: Dict[int, Dict[str, tuple]],
        inports: Dict[int, Dict[str, tuple]],
        monotonic: bool,
    ):
        self.version = version
        self.ports = ports
        self.inports = inports
        self.monotonic = monotonic


# -- program construction ------------------------------------------------------


def _op_of(circuit: Circuit, element: Element, port: str) -> list:
    """The persistent program list for one ``(element, input port)``.

    The same list object is reused across recompiles and patched in place,
    so events already sitting in a queue (which reference programs
    directly) always see current routing and probes.
    """
    key = (id(element), port)
    op = circuit._ops.get(key)
    if op is None:
        op = []
        circuit._ops[key] = op
    return op


def _taps_of(circuit: Circuit, element: Element, port: str) -> tuple:
    return tuple(
        tap.probe.record for tap in circuit._taps.get((id(element), port), ())
    )


def _rows_of(
    circuit: Circuit, element: Element, port: str, base_delay: int
) -> tuple:
    """Fanout rows ``(packed_priority_base, total_delay, sink_program)``.

    ``base_delay`` is folded into each row so the run loop computes the
    arrival time with a single addition (cell delay + wire delay are
    pre-summed for inline opcodes; emission tables pass 0 because their
    callers receive an already-delayed emission time).
    """
    return tuple(
        (
            wire.sink.input_priority(wire.sink_port) * _SEQ_SPAN,
            base_delay + wire.delay,
            _op_of(circuit, wire.sink, wire.sink_port),
        )
        for wire in circuit._fanout.get((id(element), port), ())
    )


def _emission(circuit: Circuit, cell: Element, out_port: str) -> tuple:
    """``(delay, taps, rows)`` for one output port of a fixed-delay cell."""
    delay = cell.delay
    return (
        delay,
        _taps_of(circuit, cell, out_port),
        _rows_of(circuit, cell, out_port, delay),
    )


def _compile_table(cell, port, circuit):
    """Match one port's transition rows to the cheapest opcode shape."""
    shape = cell._shapes[port]
    kind = shape[0]
    if kind == "fanout":
        emissions = tuple(_emission(circuit, cell, out) for out in shape[1])
        if len(emissions) == 1:
            _dq, taps, fan = emissions[0]
            if not taps and len(fan) == 1:
                return [_OP_DELAY1, *fan[0]]
        return [_OP_MULTI, emissions]
    if kind == "store":
        return [_OP_STORE, cell, shape[1]]
    if kind == "guard":
        _kind, fire, output, fire_next, other_next = shape
        return [
            _OP_GUARD, cell, fire, fire_next, other_next,
            *_emission(circuit, cell, output),
        ]
    if kind == "window":
        _kind, output, counted = shape
        return [
            _OP_WINDOW, cell, getattr(cell, cell.GUARDS[0]),
            cell.COUNTER if counted else None,
            *_emission(circuit, cell, output),
        ]
    rows = tuple(
        (row[0], tuple(_emission(circuit, cell, out) for out in row[1]),
         len(row) > 2)
        for row in cell.TRANSITIONS[port]
    )
    if kind == "timed":
        n_states = cell._n_states
        guards = tuple(
            (getattr(cell, bound), n_states << bit)
            for bit, bound in enumerate(cell.GUARDS)
        )
        return [_OP_TIMED, cell, guards, rows, cell.COUNTER]
    return [_OP_TABLE, cell, tuple(row[:2] for row in rows)]


def _make_emit(element: Element, table: Dict[str, tuple]):
    """Specialised ``emit`` closure for a generic (non-inline) cell.

    Installed as an *instance* attribute, shadowing :meth:`Element.emit`,
    so custom cells and fault channels calling ``self.emit(...)`` dispatch
    straight into the compiled fanout push.  ``table`` is the element's
    persistent emission table, patched in place on recompile.  If the
    simulator is not a :class:`SealedSimulator` (e.g. the same circuit is
    re-run under ``kernel="reference"`` for a differential check) the
    closure falls back to the simulator's own ``emit``.  The closure holds
    its cell only weakly, so the cell and its closure form no reference
    cycle.
    """
    cell = weakref.ref(element)

    def emit(sim, port: str, time: int) -> None:
        if sim.__class__ is not SealedSimulator:
            return sim.emit(cell(), port, time)
        sim._pulses += 1
        row = table.get(port)
        if row is None:
            return
        taps, fan = row
        for record in taps:
            record(time)
        if fan:
            seq = sim._sequence
            buckets = sim._buckets
            times = sim._times
            for kb, delay, nop in fan:
                arrival = time + delay
                k = kb + seq
                entry = (k, nop)
                seq += 1
                bucket = buckets.get(arrival)
                if bucket is None:
                    buckets[arrival] = entry
                    heappush(times, arrival)
                elif type(bucket) is list:
                    heappush(bucket, entry)
                elif bucket[0] < k:
                    buckets[arrival] = [bucket, entry]
                else:
                    buckets[arrival] = [entry, bucket]
            sim._sequence = seq

    return emit


def compile_circuit(circuit: Circuit) -> CompiledTables:
    """Freeze ``circuit``'s current topology + probes into kernel tables.

    Idempotent and cheap relative to any simulation: called automatically
    by :meth:`Circuit.seal` and lazily by :class:`SealedSimulator` whenever
    the circuit's version is newer than the cached tables.
    """
    table_handle = TableCell.handle
    default_emit = Element.emit
    emit_tables = circuit._emit_tables
    ports: Dict[int, Dict[str, tuple]] = {}
    inports: Dict[int, Dict[str, tuple]] = {}
    monotonic = True
    for element in circuit.elements:
        eid = id(element)
        etable = emit_tables.get(eid)
        if etable is None:
            etable = {}
            emit_tables[eid] = etable
        for port in element.output_names:
            etable[port] = (
                _taps_of(circuit, element, port),
                _rows_of(circuit, element, port, 0),
            )
        ports[eid] = etable
        # A cell runs inline exactly when it runs the table interpreter
        # (inline cells never call emit under the sealed loop).
        default = type(element).emit is default_emit
        inline = default and type(element).handle is table_handle
        if not inline:
            if default:
                # Generic cells get the closure; cells with a custom emit
                # keep it (routing through SealedSimulator.emit).
                element.emit = _make_emit(element, etable)
            # A free-form handle may emit with zero latency at its own
            # timestamp, so contended buckets must stay heap-ordered.
            monotonic = False
        elif monotonic:
            for port in element.output_names:
                for wire in circuit._fanout.get((id(element), port), ()):
                    if element.delay + wire.delay <= 0:
                        monotonic = False
        table: Dict[str, tuple] = {}
        for port in element.input_names:
            op = _op_of(circuit, element, port)
            if inline:
                op[:] = _compile_table(element, port, circuit)
            else:
                op[:] = [_OP_CALL, element.handle, port]
            table[port] = (element.input_priority(port) * _SEQ_SPAN, op)
        inports[eid] = table
    tables = CompiledTables(circuit._version, ports, inports, monotonic)
    circuit._compiled = tables
    return tables


class SealedSimulator(Simulator):
    """Drop-in :class:`Simulator` running the compiled fast path.

    Constructed via ``Simulator(circuit, kernel="auto"|"sealed")`` — do not
    instantiate directly unless you want to bypass kernel resolution.  The
    semantics (event order, stats, resume, error messages) are identical to
    the reference loop; only the machinery differs.
    """

    def __init__(
        self,
        circuit: Circuit,
        max_events: int = 50_000_000,
        kernel: Optional[str] = None,
        trace=None,
    ):
        self.circuit = circuit
        self.max_events = max_events
        self.kernel = "sealed" if circuit.sealed else (kernel or "auto")
        self._trace = trace
        #: time -> pending entries ``(packed_key, program)``: a bare entry
        #: tuple when one event is pending at that time, a heap-ordered
        #: list once there is contention.
        self._buckets: Dict[int, object] = {}
        #: heap of the distinct times with a pending bucket
        self._times: List[int] = []
        self._sequence = 0
        self._pulses = 0
        #: True while list buckets may be plain appended (monotonic-mode)
        #: rather than heap-ordered; a non-monotonic run heapifies first.
        self._heap_dirty = False
        self.now = 0
        self.stats = SimulationStats()
        #: The native loop's event heap (``_sealed.Queue``), or None when
        #: this simulator runs the Python loop (:meth:`_drain`).
        loop = _native_loop()
        self._queue = None if loop is None else loop.Queue()

    # -- compilation ---------------------------------------------------------
    def _tables(self) -> CompiledTables:
        tables = self.circuit._compiled
        if tables is None or tables.version != self.circuit._version:
            tables = compile_circuit(self.circuit)
        return tables

    def _inport(self, element: Element, port: str) -> tuple:
        """``(packed_priority_base, program)`` for an arrival at a port."""
        tables = self._tables()
        table = tables.inports.get(id(element))
        if table is not None:
            row = table.get(port)
            if row is not None:
                return row
        # Foreign element (not in this circuit) or unknown port: validate
        # exactly like the reference kernel, then fall back to a direct
        # call.  An arbitrary handle voids the zero-latency-free proof.
        priority = element.input_priority(port)
        tables.monotonic = False
        return (priority * _SEQ_SPAN, [_OP_CALL, element.handle, port])

    # -- scheduling ----------------------------------------------------------
    def schedule_input(self, element: Element, port: str, time: int) -> None:
        """Inject an external stimulus pulse at ``element.port``."""
        if time < 0:
            raise SimulationError(f"cannot schedule pulse at negative time {time}")
        kb, op = self._inport(element, port)
        k = kb + self._sequence
        entry = (k, op)
        self._sequence += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = entry
            heappush(self._times, time)
        elif type(bucket) is list:
            heappush(bucket, entry)
        elif bucket[0] < k:
            self._buckets[time] = [bucket, entry]
        else:
            self._buckets[time] = [entry, bucket]

    def schedule_train(self, element: Element, port: str, times) -> None:
        """Batch-inject a stimulus train: program resolved once."""
        if self._queue is not None:
            # The native loop takes the train onto its heap as one cursor.
            if type(times) is not list:
                times = list(times)
            if times:
                self._queue.schedule(self, times, *self._inport(element, port))
            return
        buckets = self._buckets
        theap = self._times
        seq = self._sequence
        kb = op = None
        try:
            for time in times:
                if time < 0:
                    raise SimulationError(
                        f"cannot schedule pulse at negative time {time}"
                    )
                if op is None:
                    # Resolved on the first pulse so an empty train, like
                    # the reference loop, never touches the port at all.
                    kb, op = self._inport(element, port)
                k = kb + seq
                entry = (k, op)
                seq += 1
                bucket = buckets.get(time)
                if bucket is None:
                    buckets[time] = entry
                    heappush(theap, time)
                elif type(bucket) is list:
                    heappush(bucket, entry)
                elif bucket[0] < k:
                    buckets[time] = [bucket, entry]
                else:
                    buckets[time] = [entry, bucket]
        finally:
            self._sequence = seq

    def emit(self, source: Element, port: str, time: int) -> None:
        """Deliver a pulse from ``source.port`` (compiled-table dispatch).

        Cells normally bypass this method entirely — inline opcodes push
        fanout directly and generic cells get a specialised closure — but
        it remains for direct calls, for cells with a custom ``emit``
        override, and for foreign elements (which, as in the reference
        kernel, count the pulse and go nowhere).
        """
        table = self._tables().ports.get(id(source))
        row = table.get(port) if table is not None else None
        self._pulses += 1
        if row is None:
            return
        taps, fan = row
        for record in taps:
            record(time)
        if fan:
            seq = self._sequence
            buckets = self._buckets
            theap = self._times
            for kb, delay, nop in fan:
                arrival = time + delay
                k = kb + seq
                entry = (k, nop)
                seq += 1
                bucket = buckets.get(arrival)
                if bucket is None:
                    buckets[arrival] = entry
                    heappush(theap, arrival)
                elif type(bucket) is list:
                    heappush(bucket, entry)
                elif bucket[0] < k:
                    buckets[arrival] = [bucket, entry]
                else:
                    buckets[arrival] = [entry, bucket]
            self._sequence = seq

    # -- execution -----------------------------------------------------------
    def _run(self, until: Optional[int] = None) -> SimulationStats:
        """Run the queue; same contract as the reference ``run``.

        (``run`` itself lives on the base class: a one-attribute-check
        dispatcher that calls this method directly when no trace session
        is installed.)  The events run on the native loop when it built,
        else on :meth:`_drain`; both write the counters back to ``self``
        and ``self.stats``, and this method does the horizon and collector
        bookkeeping for either.
        """
        circuit = self.circuit
        if circuit._compiled is None or (
            circuit._compiled.version != circuit._version
        ):
            compile_circuit(circuit)
        stats = self.stats
        stats.pulses_emitted = self._pulses
        processed_before = stats.events_processed
        pulses_before = self._pulses
        wall_start = perf_counter()
        try:
            if self._queue is None:
                self._drain(until)
            else:
                self._queue.run(self, until)
        finally:
            wall_delta = perf_counter() - wall_start
            stats.wall_s += wall_delta
        now = self.now
        end = now if until is None else (now if now > until else until)
        stats.end_time = max(stats.end_time, end)
        delta = SimulationStats(
            stats.events_processed - processed_before,
            self._pulses - pulses_before,
            stats.end_time, stats.max_queue_depth, wall_delta,
        )
        for collector in _collectors.get():
            collector.merge(delta)
        return stats

    def _drain(self, until: Optional[int]) -> None:
        """The Python loop: drain the bucket queue up to ``until``.

        It keeps every counter in locals, interprets the compiled opcode
        programs inline, and writes the counters back on every exit; only
        generic-call opcodes leave the frame.  The emission block is
        deliberately duplicated per opcode — hoisting it into a helper
        would put a Python call back on the hot path.  ``_sealed.c`` is
        the same loop in C.
        """
        mono = self.circuit._compiled.monotonic
        if mono:
            # Contended buckets are plain-appended below (the drain sorts
            # them anyway), which breaks the heap invariant for any bucket
            # left pending by an ``until``-bounded exit.
            self._heap_dirty = True
        elif self._heap_dirty:
            for leftover in self._buckets.values():
                if type(leftover) is list:
                    heapify(leftover)
            self._heap_dirty = False
        stats = self.stats
        events = stats.events_processed
        budget = events + self.max_events
        now = self.now
        seq = self._sequence
        pulses = self._pulses
        maxq = stats.max_queue_depth
        buckets = self._buckets
        times = self._times
        bget = buckets.get
        push = heappush
        # In monotonic mode heap order inside a bucket is pointless — the
        # drain below sorts the whole bucket once — so pushes degrade to
        # plain appends (``list.append`` unbound: still a single C call).
        bpush = list.append if mono else heappush
        pop = heappop
        horizon = _INF if until is None else until
        try:
            while times:
                t = times[0]
                if t > horizon:
                    break
                if t < now:
                    raise SimulationError(
                        f"causality violation: event at {t} fs before now={now} fs"
                    )
                if t > now:
                    # Queue-depth high-water mark, sampled once per strict
                    # time advance: scheduled minus processed counts every
                    # event still pending (the bucket at t included) and
                    # matches the reference kernel's sample exactly.
                    depth = seq - events
                    if depth > maxq:
                        maxq = depth
                now = t
                bucket = buckets[t]
                if type(bucket) is list:
                    if mono:
                        # No event can schedule back into this bucket, so
                        # heap order is overkill: one sort (appends above
                        # may have left it unordered), then walk it by
                        # index — no per-event pop at all.
                        bucket.sort()
                        key, op = bucket[0]
                        di = 1
                        dn = len(bucket)
                    else:
                        key, op = pop(bucket)
                    drain = bucket
                else:  # a lone entry stored bare
                    key, op = bucket
                    del buckets[t]
                    pop(times)
                    drain = None
                # Inner drain: every entry in this bucket shares timestamp
                # t, so the peek/causality/bucket machinery above runs once
                # per *distinct time* instead of once per event.
                while True:
                    events += 1
                    if events > budget:
                        if mono and drain is not None:
                            # Drop the already-walked prefix so the bucket
                            # resumes exactly like the pop-based path.
                            del drain[:di]
                        raise SimulationError(
                            f"exceeded max_events={self.max_events}; "
                            "likely an oscillating netlist"
                        )
                    kind = op[0]
                    if kind == 0:  # DELAY1: unprobed single-wire fanout
                        _k, kb, dly, nop = op
                        pulses += 1
                        arrival = t + dly
                        k = kb + seq
                        entry = (k, nop)
                        seq += 1
                        b = bget(arrival)
                        if b is None:
                            buckets[arrival] = entry
                            push(times, arrival)
                        elif type(b) is list:
                            bpush(b, entry)
                        elif b[0] < k:
                            buckets[arrival] = [b, entry]
                        else:
                            buckets[arrival] = [entry, b]
                    elif kind == 1:  # GUARD: only state op[2] emits
                        cell = op[1]
                        if cell.state == op[2]:
                            nxt = op[3]
                            if nxt is not None:
                                cell.state = nxt
                            pulses += 1
                            taps = op[6]
                            if taps:
                                ot = t + op[5]
                                for record in taps:
                                    record(ot)
                            for kb, dly, nop in op[7]:
                                arrival = t + dly
                                k = kb + seq
                                entry = (k, nop)
                                seq += 1
                                b = bget(arrival)
                                if b is None:
                                    buckets[arrival] = entry
                                    push(times, arrival)
                                elif type(b) is list:
                                    bpush(b, entry)
                                elif b[0] < k:
                                    buckets[arrival] = [b, entry]
                                else:
                                    buckets[arrival] = [entry, b]
                        else:
                            nxt = op[4]
                            if nxt is not None:
                                cell.state = nxt
                    elif kind == 2:  # TIMED: row by (guard bits, state)
                        cell = op[1]
                        code = cell.state
                        last = cell._last_emit
                        if last is not None:
                            gap = t - last
                            for bound, offset in op[2]:
                                if gap < bound:
                                    code += offset
                        nxt, emissions, counted = op[3][code]
                        cell.state = nxt
                        if counted:
                            setattr(cell, op[4], getattr(cell, op[4]) + 1)
                        if emissions:
                            cell._last_emit = t
                        for dq, taps, rows in emissions:
                            pulses += 1
                            if taps:
                                ot = t + dq
                                for record in taps:
                                    record(ot)
                            for kb, dly, nop in rows:
                                arrival = t + dly
                                k = kb + seq
                                entry = (k, nop)
                                seq += 1
                                b = bget(arrival)
                                if b is None:
                                    buckets[arrival] = entry
                                    push(times, arrival)
                                elif type(b) is list:
                                    bpush(b, entry)
                                elif b[0] < k:
                                    buckets[arrival] = [b, entry]
                                else:
                                    buckets[arrival] = [entry, b]
                    elif kind == 3:  # WINDOW: absorbed inside the guard
                        cell = op[1]
                        last = cell._last_emit
                        if last is not None and t - last < op[2]:
                            if op[3] is not None:
                                setattr(cell, op[3], getattr(cell, op[3]) + 1)
                        else:
                            cell._last_emit = t
                            pulses += 1
                            taps = op[5]
                            if taps:
                                ot = t + op[4]
                                for record in taps:
                                    record(ot)
                            for kb, dly, nop in op[6]:
                                arrival = t + dly
                                k = kb + seq
                                entry = (k, nop)
                                seq += 1
                                b = bget(arrival)
                                if b is None:
                                    buckets[arrival] = entry
                                    push(times, arrival)
                                elif type(b) is list:
                                    bpush(b, entry)
                                elif b[0] < k:
                                    buckets[arrival] = [b, entry]
                                else:
                                    buckets[arrival] = [entry, b]
                    elif kind == 4:  # MULTI: one block per output
                        for dq, taps, rows in op[1]:
                            pulses += 1
                            if taps:
                                ot = t + dq
                                for record in taps:
                                    record(ot)
                            for kb, dly, nop in rows:
                                arrival = t + dly
                                k = kb + seq
                                entry = (k, nop)
                                seq += 1
                                b = bget(arrival)
                                if b is None:
                                    buckets[arrival] = entry
                                    push(times, arrival)
                                elif type(b) is list:
                                    bpush(b, entry)
                                elif b[0] < k:
                                    buckets[arrival] = [b, entry]
                                else:
                                    buckets[arrival] = [entry, b]
                    elif kind == 5:  # STORE
                        op[1].state = op[2]
                    elif kind == 6:  # TABLE: state-dependent row
                        cell = op[1]
                        nxt, emissions = op[2][cell.state]
                        cell.state = nxt
                        for dq, taps, rows in emissions:
                            pulses += 1
                            if taps:
                                ot = t + dq
                                for record in taps:
                                    record(ot)
                            for kb, dly, nop in rows:
                                arrival = t + dly
                                k = kb + seq
                                entry = (k, nop)
                                seq += 1
                                b = bget(arrival)
                                if b is None:
                                    buckets[arrival] = entry
                                    push(times, arrival)
                                elif type(b) is list:
                                    bpush(b, entry)
                                elif b[0] < k:
                                    buckets[arrival] = [b, entry]
                                else:
                                    buckets[arrival] = [entry, b]
                    elif kind == 7:  # CALL: generic cell handle
                        self.now = now
                        self._sequence = seq
                        self._pulses = pulses
                        stats.events_processed = events
                        stats.pulses_emitted = pulses
                        try:
                            op[1](self, op[2], t)
                        finally:
                            seq = self._sequence
                            pulses = self._pulses
                    else:  # pragma: no cover - compiler invariant
                        raise SimulationError(
                            f"corrupt compiled program (kind {kind!r})"
                        )
                    # Same-time continuation.  Monotonic: walk the sorted
                    # bucket by index (its length is fixed — nothing can
                    # push back into it).  Otherwise: keep heap-popping,
                    # which does see zero-delay pushes landing back in it.
                    if drain is None:
                        break
                    if mono:
                        if di < dn:
                            key, op = drain[di]
                            di += 1
                            continue
                    elif drain:
                        key, op = pop(drain)
                        continue
                    del buckets[t]
                    pop(times)
                    break
        finally:
            self.now = now
            self._sequence = seq
            self._pulses = pulses
            stats.events_processed = events
            stats.pulses_emitted = pulses
            stats.max_queue_depth = maxq

    def _next_event_time(self) -> Optional[int]:
        """Timestamp of the earliest pending event, or None when idle."""
        first = self._times[0] if self._times else None
        if self._queue is not None:
            queued = self._queue.peek()
            if first is None or (queued is not None and queued < first):
                return queued
        return first

    def reset(self) -> None:
        """Clear queue, clock, stats, and all circuit state."""
        if self._queue is not None:
            self._queue.clear()
        self._buckets.clear()
        self._times.clear()
        self._sequence = 0
        self._pulses = 0
        self._heap_dirty = False
        self.now = 0
        self.stats = SimulationStats()
        self.circuit.reset()

    @property
    def pending_events(self) -> int:
        return (0 if self._queue is None else len(self._queue)) + sum(
            len(bucket) if type(bucket) is list else 1
            for bucket in self._buckets.values()
        )
