"""Vectorized batch kernel: thousands of independent epochs per dispatch.

Monte-Carlo sweeps (fig19 error injection, codec fuzzing, fleet-scale
accuracy studies) run the *same* netlist over and over with different
stimulus — per-point Python event loops pay the full interpreter cost for
every lane even though the lanes share all routing.  This module compiles
a sealed circuit once into a *structure-of-arrays* program executed over a
leading batch axis of ``B`` independent lanes.

A single master event loop pops ``(time, packed_key, opcode, lane_mask)``
entries from one heap.  Times and routing are scalar — shared by
construction, because every lane runs the same netlist — while the
boolean ``(B,)`` mask says which lanes the event exists in.  Cell state
lives in NumPy arrays indexed ``[state_row, lane]``, so each opcode
updates all masked lanes with a handful of vector operations instead of
``B`` interpreter dispatches.  Table cells compile by the same row shapes
as the scalar sealed kernel: a store is ``state[s][mask] = c``, a guarded
emit computes one fire mask, and the general table op splits the mask by
state and moves each part to its next state.  Timed tables keep a
per-lane last-emit timer (and counter): the one-guard window op masks
the lanes inside it, and the general timed op builds each lane's
``(guard bits, state)`` row code and gathers next state, output group
and counter bump through per-code arrays.

*Soundness*: restricting the master order to any one lane yields a valid
scalar ``(time, priority, sequence)`` order.  Entries are pushed in the
same relative order a scalar run would push them (stimulus in call order,
fanout rows in wire order), masks are immutable once scheduled, and an
event only ever spawns events whose masks are subsets of its own — so per
lane, the subsequence of events whose mask includes that lane is exactly
the scalar run's event sequence.  Sequence numbers differ from a scalar
run's, but sequence only breaks ties *within* one (time, priority) class,
where the competing batch entries are either copies of the same scalar
event or ordered identically.

Only cells with a batch opcode compile: table cells (timed ones, such as
the mergers and balancers, included) and the two fault channels.  Any
other cell (a custom ``handle`` or ``emit``) is refused by
:func:`compile_batch` with a :class:`~repro.errors.ConfigurationError`;
such circuits run on the scalar kernels.

Fault channels are vectorized natively: every lane draws from its own
``numpy.random.Generator`` seeded ``SeedSequence([seed, lane])``, with
chunked per-lane buffers so the hot path is a single gather.  Lane
streams are therefore independent of batch composition and reproducible,
but they are *not* the scalar channels' ``random.Random`` streams; only
rate-0/std-0 channels are bit-identical to scalar runs.

Typical usage::

    from repro.pulsesim.batch import BatchSimulator

    sim = BatchSimulator(circuit, batch=4096)
    sim.schedule_flat(entry, "a", times, lanes)   # per-lane stimulus
    stats = sim.run()                             # per-lane stat arrays
    counts = sim.port_counts(sink, "q")           # (B,) pulse counts

The batch-vs-sealed differential oracle in :mod:`repro.verify.oracles`
locks this kernel to the scalar sealed kernel lane by lane.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.pulsesim.element import Element, TableCell
from repro.pulsesim.netlist import Circuit

#: Packed sort keys are ``priority * _SEQ_SPAN + sequence`` exactly like
#: the scalar sealed kernel, so priority ordering is preserved.
_SEQ_SPAN = 1 << 48

# Batch opcode kinds.  Table-cell ports use the same shapes as the scalar
# sealed compiler (:func:`~repro.pulsesim.element.table_shape`).
# Layouts (op is a plain list):
_B_DELAY = 0  # [0, dq, taps, rows]                 one state, one output
_B_WINDOW = 1  # [1, timer, counter, bound, dq, taps, rows]  one state, 1 guard
_B_MULTI = 2  # [2, emissions]                      one state, 0 or 2+ outputs
_B_STORE = 3  # [3, sidx, state]                    no output, state <- constant
_B_GUARD = 4  # [4, sidx, fire, fire_next, other_next, dq, taps, rows]
#               (fire_next resolved: never None, unlike the sealed GUARD)
_B_TABLE = 5  # [5, sidx, ((next_state, emissions), ...)]  per-state rows
_B_DROP = 6  # [6, fidx, taps, rows]                DropChannel a
_B_JITTER = 7  # [7, fidx, taps, rows]                JitterChannel a
_B_TIMED = 8  # [8, sidx, timer, counter, ((bound, offset), ...), next_state,
#               group, counted, groups]  timed table, gathered by row code

#: Per-lane RNG buffer length: variates drawn per refill of one lane.
_RNG_CHUNK = 256

#: Timer value of a lane that has not emitted yet.
_NEVER = -(1 << 62)


class BatchProgram:
    """Flat batched dispatch tables for one circuit at one version.

    Attributes:
        version: Circuit version the program was built from.
        inports: ``(id(element), port) -> (packed_priority_base, op)``.
        tap_index: ``(id(element), output_port) -> recording index`` for
            every probed port.
        tap_keys: ``(element, port)`` per recording index.
        state_init: uint8 initial value per unified-state row.
        n_timers: timed table cells (rows of the last-emit timer array).
        n_counters: timed cells with a counter (rows of the count array).
        fault_specs: ``("drop"|"jitter", element)`` per fault index.
        state_map: ``id(element) -> ((attr, kind, index), ...)`` mapping
            scalar state attributes onto the batch arrays (for the
            differential oracle's state snapshots).
    """

    __slots__ = (
        "version",
        "inports",
        "tap_index",
        "tap_keys",
        "state_init",
        "n_timers",
        "n_counters",
        "fault_specs",
        "state_map",
    )


def _classify(element: Element) -> str:
    """Opcode family for ``element``, by handle-function identity.

    Mirrors the scalar sealed compiler: every cell running the
    :class:`TableCell` interpreter vectorizes, and so do the two fault
    channels.  A cell that overrides ``handle`` or ``emit`` has no batch
    opcode and is refused with :class:`ConfigurationError`.
    """
    from repro.pulsesim.faults import DropChannel, JitterChannel

    table = {
        TableCell.handle: "table",
        DropChannel.handle: "drop",
        JitterChannel.handle: "jitter",
    }
    kind = table.get(type(element).handle)
    if kind is None or type(element).emit is not Element.emit:
        raise ConfigurationError(
            f"cell {element.name!r} ({type(element).__name__}) has no batch "
            "opcode: the batch kernel runs table, drop and jitter cells "
            "only; run this circuit on the scalar kernels"
        )
    return kind


def _table_op(element: TableCell, port: str, s: int, timer: int,
              counter: int, emission) -> list:
    """Masked op for one table-cell port (state row ``s``; ``timer`` and
    ``counter`` rows for a timed cell)."""
    shape = element._shapes[port]
    kind = shape[0]
    if kind == "fanout":
        outputs = shape[1]
        if len(outputs) == 1:
            return [_B_DELAY, *emission(element, outputs[0])]
        return [_B_MULTI, tuple(emission(element, out) for out in outputs)]
    if kind == "store":
        return [_B_STORE, s, shape[1]]
    if kind == "guard":
        _kind, fire, output, fire_next, other_next = shape
        return [
            _B_GUARD, s, fire, fire if fire_next is None else fire_next,
            other_next, *emission(element, output),
        ]
    rows = element.TRANSITIONS[port]
    if kind == "window":
        _kind, output, counted = shape
        return [
            _B_WINDOW, timer, counter if counted else -1,
            getattr(element, element.GUARDS[0]), *emission(element, output),
        ]
    if kind == "timed":
        # Rows are gathered by per-lane code; emissions go by output group.
        groups = list(dict.fromkeys(row[1] for row in rows if row[1]))
        n_states = element._n_states
        return [
            _B_TIMED, s, timer, counter,
            tuple(
                (getattr(element, bound), n_states << bit)
                for bit, bound in enumerate(element.GUARDS)
            ),
            np.array([row[0] for row in rows], dtype=np.uint8),
            np.array([groups.index(row[1]) + 1 if row[1] else 0
                      for row in rows], dtype=np.int8),
            np.array([len(row) > 2 for row in rows]),
            tuple(tuple(emission(element, out) for out in outputs)
                  for outputs in groups),
        ]
    return [
        _B_TABLE,
        s,
        tuple(
            (nxt, tuple(emission(element, out) for out in outputs))
            for nxt, outputs in rows
        ),
    ]


def compile_batch(circuit: Circuit) -> BatchProgram:
    """Compile a sealed circuit into a :class:`BatchProgram`.

    Normally reached through :meth:`Circuit.seal_batch`, which caches the
    program against the circuit version (a probe attached later bumps the
    version and recompiles with the new tap index).
    """
    if not circuit.sealed:
        circuit.seal()

    prog = BatchProgram()
    prog.version = circuit._version

    tap_index: Dict[Tuple[int, str], int] = {}
    tap_keys: List[Tuple[Element, str]] = []
    for (eid, port), taps in circuit._taps.items():
        if taps:
            tap_index[(eid, port)] = len(tap_keys)
            tap_keys.append((taps[0].source, port))

    ops: Dict[Tuple[int, str], list] = {}

    def op_of(el, port):
        return ops.setdefault((id(el), port), [])

    def taps_of(el, port):
        ti = tap_index.get((id(el), port))
        return () if ti is None else (ti,)

    def rows_of(el, port, base):
        return tuple(
            (
                wire.sink.input_priority(wire.sink_port) * _SEQ_SPAN,
                base + wire.delay,
                op_of(wire.sink, wire.sink_port),
            )
            for wire in circuit._fanout.get((id(el), port), ())
        )

    def emission(el, out):
        delay = el.delay
        return (delay, taps_of(el, out), rows_of(el, out, delay))

    state_init: List[int] = []
    state_map: Dict[int, tuple] = {}
    fault_specs: List[Tuple[str, Element]] = []
    n_timers = 0
    n_counters = 0
    inports: Dict[Tuple[int, str], tuple] = {}

    for element in circuit.elements:
        eid = id(element)
        kind = _classify(element)
        if kind == "table":
            slots = []
            s = timer = counter = -1  # -1: the cell keeps no such row
            if element._n_states > 1:
                s = len(state_init)
                state_init.append(element.INITIAL)
                slots.append(("state", "u8", s))
            if element.GUARDS:
                timer = n_timers
                n_timers += 1
                slots.append(("_last_emit", "timer", timer))
                if element.COUNTER:
                    counter = n_counters
                    n_counters += 1
                    slots.append((element.COUNTER, "count", counter))
            if slots:
                state_map[eid] = tuple(slots)
            for port in element.input_names:
                op_of(element, port)[:] = _table_op(
                    element, port, s, timer, counter, emission)
        else:  # "drop" or "jitter"
            f = len(fault_specs)
            fault_specs.append((kind, element))
            code = _B_DROP if kind == "drop" else _B_JITTER
            op_of(element, "a")[:] = [
                code,
                f,
                taps_of(element, "q"),
                rows_of(element, "q", 0),
            ]
            if kind == "drop":
                state_map[eid] = (
                    ("pulses_seen", "fault", (f, "seen")),
                    ("pulses_dropped", "fault", (f, "lost")),
                )
            else:
                state_map[eid] = (
                    ("pulses_seen", "fault", (f, "seen")),
                    ("pulses_displaced", "fault", (f, "lost")),
                    ("max_displacement_fs", "fault", (f, "peak")),
                )
        for port in element.input_names:
            inports[(eid, port)] = (
                element.input_priority(port) * _SEQ_SPAN,
                op_of(element, port),
            )

    prog.inports = inports
    prog.tap_index = tap_index
    prog.tap_keys = tap_keys
    prog.state_init = np.asarray(state_init, dtype=np.uint8)
    prog.n_timers = n_timers
    prog.n_counters = n_counters
    prog.fault_specs = fault_specs
    prog.state_map = state_map
    return prog


class _LaneRng:
    """Chunked per-lane random streams for vectorized fault channels.

    Lane ``i`` draws from ``Generator(PCG64(SeedSequence([seed, i])))``,
    so its stream depends only on the channel seed and lane index — never
    on batch size or on what other lanes consumed.  Variates are drawn
    ``_RNG_CHUNK`` at a time per lane; the hot path is one gather plus a
    masked pointer bump.
    """

    __slots__ = ("_gens", "_buf", "_ptr", "_ids", "_normal")

    def __init__(self, seed: int, batch: int, normal: bool):
        self._gens = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, lane])))
            for lane in range(batch)
        ]
        self._buf = np.empty((batch, _RNG_CHUNK), dtype=np.float64)
        self._ptr = np.full(batch, _RNG_CHUNK, dtype=np.int64)
        self._ids = np.arange(batch)
        self._normal = normal

    def take(self, mask: np.ndarray) -> np.ndarray:
        """Next variate per lane; consumed (pointer advanced) only where
        ``mask`` is set.  Unmasked entries are unspecified."""
        need = mask & (self._ptr >= _RNG_CHUNK)
        if need.any():
            for lane in np.flatnonzero(need):
                gen = self._gens[lane]
                self._buf[lane] = (
                    gen.standard_normal(_RNG_CHUNK)
                    if self._normal
                    else gen.random(_RNG_CHUNK)
                )
                self._ptr[lane] = 0
        vals = self._buf[self._ids, np.minimum(self._ptr, _RNG_CHUNK - 1)]
        self._ptr += mask
        return vals


class _DropState:
    __slots__ = ("rng", "rates", "seen", "lost")

    def __init__(self, element, batch):
        self.rng = _LaneRng(element.seed, batch, normal=False)
        self.rates = np.full(batch, element.drop_rate, dtype=np.float64)
        self.seen = np.zeros(batch, dtype=np.int64)
        self.lost = np.zeros(batch, dtype=np.int64)


class _JitterState:
    __slots__ = ("rng", "std", "mean", "seen", "lost", "peak")

    def __init__(self, element, batch):
        self.rng = _LaneRng(element.seed, batch, normal=True)
        self.std = element.std_fs
        self.mean = element.mean_fs
        self.seen = np.zeros(batch, dtype=np.int64)
        self.lost = np.zeros(batch, dtype=np.int64)  # pulses_displaced
        self.peak = np.zeros(batch, dtype=np.int64)  # max_displacement_fs


class BatchStats:
    """Per-lane run statistics; scalar-compatible views via :meth:`lane`.

    ``events``/``pulses``/``end_time`` are what a scalar sealed run of
    each lane would report.  Queue depth is not tracked (the master
    queue's depth has no per-lane meaning) and ``wall_s`` is the
    whole-batch wall time.
    """

    __slots__ = ("batch", "events", "pulses", "end_time", "wall_s")

    def __init__(self, batch, events, pulses, end_time, wall_s):
        self.batch = batch
        self.events = events
        self.pulses = pulses
        self.end_time = end_time
        self.wall_s = wall_s

    @property
    def events_total(self) -> int:
        return int(self.events.sum())

    @property
    def pulses_total(self) -> int:
        return int(self.pulses.sum())

    def lane(self, lane: int):
        """A :class:`~repro.pulsesim.simulator.SimulationStats` for one lane."""
        from repro.pulsesim.simulator import SimulationStats

        return SimulationStats(
            events_processed=int(self.events[lane]),
            pulses_emitted=int(self.pulses[lane]),
            end_time=int(self.end_time[lane]),
            max_queue_depth=0,
            wall_s=self.wall_s,
        )


class BatchSimulator:
    """Run ``batch`` independent lanes of one circuit in lockstep.

    Args:
        circuit: The netlist; compiled via :meth:`Circuit.seal_batch`.
        batch: Number of independent lanes (epochs) to execute.
        max_events: Total lane-event budget across the whole batch
            (oscillation guard, compare the scalar per-run default).
        kw-only drop-rate overrides etc. are set post-construction via
            :meth:`set_drop_rates`.

    Stimulus must target elements of ``circuit``; probes must be attached
    before the first ``run()`` (the program snapshot carries the tap
    indices).  ``run(until=...)`` bounds simulated time like the scalar
    kernels.  A circuit holding a cell without a batch opcode is refused
    here with :class:`ConfigurationError` (see :func:`compile_batch`).
    """

    def __init__(
        self,
        circuit: Circuit,
        batch: int,
        max_events: int = 50_000_000,
    ):
        if batch < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {batch}")
        self.circuit = circuit
        self.batch = int(batch)
        self.max_events = max_events
        self._program = circuit.seal_batch()
        self._alloc()

    # -- lifecycle ------------------------------------------------------------
    def _alloc(self) -> None:
        prog = self._program
        B = self.batch
        n_state = prog.state_init.size
        self._state = np.repeat(prog.state_init[:, None], B, axis=1)
        if n_state == 0:
            self._state = self._state.reshape(0, B)
        # Last-emit times; "never" is far enough back that no guard holds.
        self._timers = np.full((prog.n_timers, B), _NEVER, dtype=np.int64)
        self._counts = np.zeros((prog.n_counters, B), dtype=np.int64)
        self._events = np.zeros(B, dtype=np.int64)
        self._pulses = np.zeros(B, dtype=np.int64)
        self._end = np.zeros(B, dtype=np.int64)
        self._recs: List[list] = [[] for _ in prog.tap_keys]  # (time, mask)
        self._raw: List[tuple] = []
        self._heap: List[tuple] = []
        self._seq = 0
        self._now = 0
        self._total_events = 0
        self._wall = 0.0
        self._ones = np.ones(B, dtype=bool)
        self._faults = [
            _DropState(el, B) if kind == "drop" else _JitterState(el, B)
            for kind, el in prog.fault_specs
        ]

    def reset(self) -> None:
        """Fresh lanes: state, recordings, stats, RNG streams rewound."""
        self._alloc()

    # -- scheduling -----------------------------------------------------------
    def _check_port(self, element: Element, port: str) -> None:
        if (id(element), port) not in self._program.inports:
            raise SimulationError(
                f"{element.name}.{port} is not an input port of an element "
                f"of circuit {self.circuit.name!r}"
            )

    def _add_chunk(self, element, port, times, lanes) -> None:
        self._check_port(element, port)
        times = np.asarray(times, dtype=np.int64)
        if times.ndim != 1:
            raise SimulationError(
                f"stimulus times must be one-dimensional, got shape {times.shape}"
            )
        if times.size and times.min() < 0:
            raise SimulationError(
                f"cannot schedule pulse at negative time {int(times.min())}"
            )
        if lanes is not None:
            lanes = np.asarray(lanes, dtype=np.int64)
            if lanes.shape != times.shape:
                raise SimulationError(
                    f"lane array shape {lanes.shape} does not match times "
                    f"shape {times.shape}"
                )
            if lanes.size and (lanes.min() < 0 or lanes.max() >= self.batch):
                raise SimulationError(
                    f"lane ids must be in [0, {self.batch}), got "
                    f"[{int(lanes.min())}, {int(lanes.max())}]"
                )
        if times.size:
            self._raw.append((element, port, times, lanes))

    def schedule_input(self, element: Element, port: str, time) -> None:
        """One pulse per lane: a scalar broadcasts, a ``(batch,)`` array
        gives each lane its own time."""
        arr = np.asarray(time)
        if arr.ndim == 0:
            self._add_chunk(element, port, [int(time)], None)
        elif arr.shape == (self.batch,):
            self._add_chunk(element, port, arr, np.arange(self.batch))
        else:
            raise SimulationError(
                f"schedule_input takes a scalar or a ({self.batch},) array, "
                f"got shape {arr.shape}"
            )

    def schedule_train(self, element: Element, port: str, times) -> None:
        """Broadcast a stimulus train to every lane."""
        self._add_chunk(element, port, list(times), None)

    def schedule_lane_trains(self, element: Element, port: str, trains) -> None:
        """Per-lane trains: ``trains[i]`` is lane ``i``'s pulse times."""
        trains = list(trains)
        if len(trains) != self.batch:
            raise SimulationError(
                f"need one train per lane ({self.batch}), got {len(trains)}"
            )
        times = []
        lanes = []
        for lane, train in enumerate(trains):
            train = list(train)
            times.extend(train)
            lanes.extend([lane] * len(train))
        if times:
            self._add_chunk(element, port, times, lanes)

    def schedule_flat(self, element: Element, port: str, times, lanes) -> None:
        """Flat ``(times, lanes)`` stimulus arrays (the SoA native form)."""
        self._add_chunk(element, port, times, lanes)

    def set_drop_rates(self, element: Element, rates) -> None:
        """Per-lane drop probabilities for one :class:`DropChannel`.

        Lets a Monte-Carlo sweep coalesce *different* error rates into a
        single batch run (each lane keeps its own seeded stream, so lane
        results match a same-rate batch run lane for lane).
        """
        for state, (kind, el) in zip(self._faults, self._program.fault_specs):
            if el is element:
                if kind != "drop":
                    raise ConfigurationError(
                        f"{element.name} is a {kind} channel, not a DropChannel"
                    )
                arr = np.asarray(rates, dtype=np.float64)
                if arr.ndim == 0:
                    arr = np.full(self.batch, float(arr))
                if arr.shape != (self.batch,):
                    raise ConfigurationError(
                        f"rates must be scalar or ({self.batch},), got {arr.shape}"
                    )
                if arr.min() < 0.0 or arr.max() > 1.0:
                    raise ConfigurationError("drop rates must be in [0, 1]")
                state.rates = arr
                return
        raise ConfigurationError(
            f"{element.name!r} is not a fault channel of this circuit"
        )

    # -- execution ------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> BatchStats:
        """Execute all pending stimulus; returns per-lane stats.

        ``until`` bounds simulated time (events after it stay queued for a
        later ``run``).
        """
        if self._program.version != self.circuit._version:
            raise SimulationError(
                "circuit changed (topology or probes) after this "
                "BatchSimulator was built; construct a new BatchSimulator"
            )
        wall0 = perf_counter()
        self._flush_raw_to_heap()
        self._run_events(until)
        self._wall += perf_counter() - wall0
        return BatchStats(
            batch=self.batch,
            events=self._events.copy(),
            pulses=self._pulses.copy(),
            end_time=self._end.copy(),
            wall_s=self._wall,
        )

    # -- masked event loop ----------------------------------------------------
    def _flush_raw_to_heap(self) -> None:
        heap = self._heap
        for element, port, times, lanes in self._raw:
            kb, op = self._program.inports[(id(element), port)]
            if lanes is None:
                ones = self._ones
                uts, counts = np.unique(times, return_counts=True)
                for t, c in zip(uts.tolist(), counts.tolist()):
                    for _ in range(c):
                        heappush(heap, (t, kb + self._seq, op, ones))
                        self._seq += 1
            else:
                order = np.lexsort((lanes, times))
                ts = times[order]
                ls = lanes[order]
                uts, starts = np.unique(ts, return_index=True)
                bounds = starts.tolist() + [ts.size]
                for i, t in enumerate(uts.tolist()):
                    seg = ls[bounds[i] : bounds[i + 1]]
                    counts = np.bincount(seg, minlength=self.batch)
                    for k in range(int(counts.max())):
                        heappush(
                            heap, (t, kb + self._seq, op, counts > k)
                        )
                        self._seq += 1
        self._raw.clear()

    def _emit(self, t, dq, taps, rows, mask) -> None:
        """Record taps and push fanout for one emission over ``mask``."""
        self._pulses += mask
        if taps:
            ot = t + dq
            recs = self._recs
            for ti in taps:
                recs[ti].append((ot, mask))
        if rows:
            heap = self._heap
            seq = self._seq
            for kb, dly, nop in rows:
                heappush(heap, (t + dly, kb + seq, nop, mask))
                seq += 1
            self._seq = seq

    def _run_events(self, until: Optional[int]) -> None:
        from repro.pulsesim.faults import _TOTALS

        heap = self._heap
        state = self._state
        timers = self._timers
        now = self._now
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                t, _key, op, mask = heappop(heap)
                if t < now:
                    raise SimulationError(
                        f"causality violation: event at {t} fs before "
                        f"now={now} fs"
                    )
                now = t
                self._events += mask
                n_active = int(mask.sum())
                self._total_events += n_active
                if self._total_events > self.max_events:
                    raise SimulationError(
                        f"exceeded max_events={self.max_events}; "
                        "likely an oscillating netlist"
                    )
                self._end[mask] = t
                kind = op[0]
                if kind == _B_DELAY:
                    self._emit(t, op[1], op[2], op[3], mask)
                elif kind == _B_MULTI:
                    for dq, taps, rows in op[1]:
                        self._emit(t, dq, taps, rows, mask)
                elif kind == _B_WINDOW:
                    _c, ti, ci, bound, dq, taps, rows = op
                    last = timers[ti]
                    inside = mask & (t - last < bound)
                    if ci >= 0 and inside.any():
                        self._counts[ci] += inside
                    accept = mask ^ inside
                    if accept.any():
                        last[accept] = t
                        self._emit(t, dq, taps, rows, accept)
                elif kind == _B_STORE:
                    state[op[1]][mask] = op[2]
                elif kind == _B_GUARD:
                    _c, s, fire_state, fire_next, other_next, dq, taps, rows = op
                    st = state[s]
                    fire = mask & (st == fire_state)
                    if other_next is not None:
                        st[mask] = other_next
                        if fire_next != other_next:
                            st[fire] = fire_next
                    elif fire_next != fire_state:
                        st[fire] = fire_next
                    if fire.any():
                        self._emit(t, dq, taps, rows, fire)
                elif kind == _B_TABLE:
                    # Split the mask by state before any lane moves on.
                    st = state[op[1]]
                    splits = [mask & (st == v) for v in range(len(op[2]))]
                    for v, ((nxt, emissions), sub) in enumerate(zip(op[2], splits)):
                        if sub.any():
                            if nxt != v:
                                st[sub] = nxt
                            for dq, taps, rows in emissions:
                                self._emit(t, dq, taps, rows, sub)
                elif kind == _B_TIMED:
                    # Each lane's row code is its guard bits and state,
                    # read before any lane moves on.
                    _c, si, ti, ci, guards, nxt, group, counted, groups = op
                    last = timers[ti]
                    gap = t - last
                    code = state[si] if si >= 0 else 0
                    for bound, offset in guards:
                        code = code + offset * (gap < bound)
                    if si >= 0:
                        np.copyto(state[si], nxt[code], where=mask)
                    if ci >= 0:
                        bump = mask & counted[code]
                        if bump.any():
                            self._counts[ci] += bump
                    out = group[code]
                    last[mask & (out > 0)] = t
                    for g, emissions in enumerate(groups, 1):
                        sub = mask & (out == g)
                        if sub.any():
                            for dq, taps, rows in emissions:
                                self._emit(t, dq, taps, rows, sub)
                elif kind == _B_DROP:
                    _c, f, taps, rows = op
                    fa = self._faults[f]
                    fa.seen += mask
                    _TOTALS["drop.pulses_seen"] += n_active
                    u = fa.rng.take(mask)
                    dropped = mask & (u < fa.rates)
                    nd = int(dropped.sum())
                    if nd:
                        fa.lost += dropped
                        _TOTALS["drop.pulses_dropped"] += nd
                    accept = mask & ~dropped
                    if accept.any():
                        self._emit(t, 0, taps, rows, accept)
                elif kind == _B_JITTER:
                    _c, f, taps, rows = op
                    fa = self._faults[f]
                    fa.seen += mask
                    _TOTALS["jitter.pulses_seen"] += n_active
                    if fa.std:
                        disp = np.rint(fa.rng.take(mask) * fa.std).astype(
                            np.int64
                        )
                    else:
                        disp = np.zeros(self.batch, dtype=np.int64)
                    delay = np.maximum(0, fa.mean + disp)
                    effective = delay - fa.mean
                    moved = mask & (effective != 0)
                    nm = int(moved.sum())
                    if nm:
                        fa.lost += moved
                        _TOTALS["jitter.pulses_displaced"] += nm
                        np.maximum(
                            fa.peak,
                            np.where(moved, np.abs(effective), 0),
                            out=fa.peak,
                        )
                    for d in np.unique(delay[mask]).tolist():
                        sub = mask & (delay == d)
                        self._emit(t + d, 0, taps, rows, sub)
                else:  # pragma: no cover - compiler invariant
                    raise SimulationError(
                        f"corrupt batch program (kind {kind!r})"
                    )
        finally:
            self._now = now
        if until is not None:
            np.maximum(self._end, until, out=self._end)

    # -- results --------------------------------------------------------------
    def _tap(self, element: Element, port: str) -> int:
        ti = self._program.tap_index.get((id(element), port))
        if ti is None:
            raise SimulationError(
                f"no probe on {element.name}.{port}; attach one with "
                "circuit.probe(...) before building the BatchSimulator"
            )
        return ti

    def port_counts(self, element: Element, port: str) -> np.ndarray:
        """Per-lane pulse count ``(batch,)`` recorded at a probed port."""
        ti = self._tap(element, port)
        out = np.zeros(self.batch, dtype=np.int64)
        for _t, mask in self._recs[ti]:
            out += mask
        return out

    def port_times(self, element: Element, port: str, lane: int) -> List[int]:
        """Sorted pulse times recorded at a probed port in one lane."""
        ti = self._tap(element, port)
        return sorted(t for t, mask in self._recs[ti] if mask[lane])

    def element_attr(self, element: Element, attr: str, lane: int, default=None):
        """Scalar-equivalent state attribute of ``element`` in one lane.

        Mirrors ``getattr(element, attr, default)`` on a scalar run: the
        batch arrays are consulted for the state they model, and the
        element's own (never-touched) attribute is the fallback for state
        the batch kernel does not model (e.g. stateless cells).
        """
        for name, kind, idx in self._program.state_map.get(id(element), ()):
            if name != attr:
                continue
            if kind == "u8":
                return int(self._state[idx, lane])
            if kind == "timer":
                value = int(self._timers[idx, lane])
                return None if value == _NEVER else value
            if kind == "count":
                return int(self._counts[idx, lane])
            if kind == "fault":
                f, field = idx
                return int(getattr(self._faults[f], field)[lane])
        return getattr(element, attr, default)

    @property
    def pending_events(self) -> int:
        """Master-queue entries still pending (0 after an unbounded run)."""
        return len(self._heap) + sum(
            chunk[2].size for chunk in self._raw
        )
