"""Vectorized batch kernel: thousands of independent epochs per dispatch.

Monte-Carlo sweeps (fig19 error injection, codec fuzzing, fleet-scale
accuracy studies) run the *same* netlist over and over with different
stimulus — per-point Python event loops pay the full interpreter cost for
every lane even though the lanes share all routing.  This module compiles
a sealed circuit once into a *structure-of-arrays* program executed over a
leading batch axis of ``B`` independent lanes:

* **Masked event mode** (the general case).  A single master event loop
  pops ``(time, packed_key, opcode, lane_mask)`` entries from one heap.
  Times and routing are scalar — shared by construction, because every
  lane runs the same netlist — while the boolean ``(B,)`` mask says which
  lanes the event exists in.  Cell state lives in NumPy arrays indexed
  ``[state_row, lane]``, so each opcode updates all masked lanes with a
  handful of vector operations instead of ``B`` interpreter dispatches.
  Table cells compile by the same row shapes as the scalar sealed
  kernel: a store is ``state[s][mask] = c``, a guarded emit computes one
  fire mask, and the general table op splits the mask by state and
  moves each part to its next state.

  *Soundness*: restricting the master order to any one lane yields a
  valid scalar ``(time, priority, sequence)`` order.  Entries are pushed
  in the same relative order a scalar run would push them (stimulus in
  call order, fanout rows in wire order), masks are immutable once
  scheduled, and an event only ever spawns events whose masks are subsets
  of its own — so per lane, the subsequence of events whose mask includes
  that lane is exactly the scalar run's event sequence.  Sequence numbers
  differ from a scalar run's, but sequence only breaks ties *within* one
  (time, priority) class, where the competing batch entries are either
  copies of the same scalar event or ordered identically.

* **Analytic closed form** (feed-forward fast path).  When every cell is
  a one-state table cell (JTL, splitter) or a zero-dead-time merger — the
  paper's Race-Logic and pulse-stream interconnect fabrics — the
  response to one stimulus pulse is a fixed, state-independent tree of
  arrivals.  The compiler folds each
  ``(element, input port)`` into a :class:`_Profile` (events spawned,
  pulses emitted, latest-arrival offset, per-probe delay multisets) and
  ``run()`` reduces whole stimulus chunks with ``bincount``/``maximum``
  reductions: no event loop at all, cost independent of pulse count per
  tap.  This is where the large (50x+) batch speedups come from.

Generic cells (custom ``handle`` or ``emit``) still work in event mode:
each gets ``B`` per-lane clones (rebuilt from ``Element.params()``), and
the master loop calls ``clone.handle`` per active lane — correct but not
vectorized, like the scalar generic-call opcode.

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
_B_CALL = 0  # [0, element, port]                  generic cell, per-lane clones
_B_DELAY = 1  # [1, dq, taps, rows]                 one state, one output
_B_MERGER = 2  # [2, midx, dead, dq, taps, rows]     merger (dead time)
_B_MULTI = 3  # [3, emissions]                      one state, 0 or 2+ outputs
_B_STORE = 4  # [4, sidx, state]                    no output, state <- constant
_B_GUARD = 5  # [5, sidx, fire, fire_next, other_next, dq, taps, rows]
#               (fire_next resolved: never None, unlike the sealed GUARD)
_B_TABLE = 6  # [6, sidx, ((next_state, emissions), ...)]  per-state rows
_B_DROP = 7  # [7, fidx, taps, rows]                DropChannel a
_B_JITTER = 8  # [8, fidx, taps, rows]                JitterChannel a
_B_BAL = 9  # [9, bidx, port_bit, t_bff, coinc, em1, em2]  balancer a/b

#: Analytic-mode guards: a splitter tree doubles per level, so profiles
#: cap the per-arrival tap fanout and event count; circuits past the cap
#: fall back to the masked event loop.
_ANALYTIC_TAP_CAP = 4096
_ANALYTIC_EVENT_CAP = 1 << 20

#: Per-lane RNG buffer length: variates drawn per refill of one lane.
_RNG_CHUNK = 256


class _NotAnalytic(Exception):
    """Internal: circuit is outside the closed-form fast path."""


class _Profile:
    """Closed-form response of one ``(element, input port)`` to one pulse.

    Attributes:
        events: Events a scalar kernel would pop per stimulus arrival
            (including the arrival itself).
        pulses: Pulses a scalar kernel would emit per stimulus arrival.
        d_max: Largest event-time offset from the stimulus time (the
            lane's ``end_time`` contribution).
        taps: ``tap_index -> int64 array`` of record-time offsets (one
            entry per pulse recorded at that probe, duplicates kept).
        mergers: ``merger_index -> int`` largest arrival offset at that
            merger (its ``_last_accept`` contribution; with zero dead
            time every arrival is accepted, so the latest arrival is the
            last accept).
    """

    __slots__ = ("events", "pulses", "d_max", "taps", "mergers")

    def __init__(self, events, pulses, d_max, taps, mergers):
        self.events = events
        self.pulses = pulses
        self.d_max = d_max
        self.taps = taps
        self.mergers = mergers


class BatchProgram:
    """Flat batched dispatch tables for one circuit at one version.

    Attributes:
        version: Circuit version the program was built from.
        inports: ``(id(element), port) -> (packed_priority_base, op)``.
        emit_tables: ``id(element) -> {output_port -> (taps, rows)}``,
            rows with zero base delay, for :meth:`BatchSimulator.emit`.
        tap_index: ``(id(element), output_port) -> recording index`` for
            every probed port.
        tap_keys: ``(element, port)`` per recording index.
        state_init: uint8 initial value per unified-state row.
        n_mergers: row count of the merger (last-accept, collisions)
            arrays.
        n_balancers: row count of the balancer Mealy-state arrays
            (toggle state, last arrival, pair-open flag, hazard count).
        fault_specs: ``("drop"|"jitter", element)`` per fault index.
        generic: elements executed via per-lane clones.
        state_map: ``id(element) -> ((attr, kind, index), ...)`` mapping
            scalar state attributes onto the batch arrays (for the
            differential oracle's state snapshots).
        analytic: whether the closed-form fast path applies.
        profiles: ``(id(element), port) -> _Profile`` when analytic.
    """

    __slots__ = (
        "version",
        "inports",
        "emit_tables",
        "tap_index",
        "tap_keys",
        "state_init",
        "n_mergers",
        "n_balancers",
        "fault_specs",
        "generic",
        "state_map",
        "analytic",
        "profiles",
    )


def _classify(element: Element) -> str:
    """Opcode family for ``element``, by handle-function identity.

    Mirrors the scalar sealed compiler: subclasses inheriting a standard
    ``handle`` (every :class:`TableCell`, ``IdealMerger``) vectorize;
    overriding ``handle`` or ``emit`` falls back to the generic
    per-lane-clone path.
    """
    from repro.cells.interconnect import Merger
    from repro.core.balancer import Balancer
    from repro.pulsesim.faults import DropChannel, JitterChannel

    if type(element).emit is not Element.emit:
        return "generic"
    table = {
        TableCell.handle: "table",
        Merger.handle: "merger",
        DropChannel.handle: "drop",
        JitterChannel.handle: "jitter",
        Balancer.handle: "balancer",
    }
    return table.get(type(element).handle, "generic")


def _table_op(element: TableCell, port: str, s: int, emission) -> list:
    """Masked op for one table-cell port (state row ``s``)."""
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
    return [
        _B_TABLE,
        s,
        tuple(
            (nxt, tuple(emission(element, out) for out in outputs))
            for nxt, outputs in element.TRANSITIONS[port]
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

    kinds: Dict[int, str] = {}
    state_init: List[int] = []
    state_map: Dict[int, tuple] = {}
    fault_specs: List[Tuple[str, Element]] = []
    generic: List[Element] = []
    n_mergers = 0
    n_balancers = 0
    emit_tables: Dict[int, dict] = {}
    inports: Dict[Tuple[int, str], tuple] = {}

    for element in circuit.elements:
        eid = id(element)
        kind = _classify(element)
        if kind == "table" and len(next(iter(element.TRANSITIONS.values()))) == 1:
            kind = "fanout"  # one-state table: no state row, analytic-eligible
        kinds[eid] = kind
        emit_tables[eid] = {
            port: (taps_of(element, port), rows_of(element, port, 0))
            for port in element.output_names
        }
        if kind in ("table", "fanout"):
            s = -1
            if kind == "table":
                s = len(state_init)
                state_init.append(element.INITIAL)
                state_map[eid] = (("state", "u8", s),)
            for port in element.input_names:
                op_of(element, port)[:] = _table_op(element, port, s, emission)
        elif kind == "merger":
            m = n_mergers
            n_mergers += 1
            body = [_B_MERGER, m, element.dead_time, *emission(element, "q")]
            for port in element.input_names:
                op_of(element, port)[:] = body
            state_map[eid] = (
                ("collisions", "mcoll", m),
                ("_last_accept", "mlast", m),
            )
        elif kind == "balancer":
            b = n_balancers
            n_balancers += 1
            em1 = emission(element, "y1")
            em2 = emission(element, "y2")
            for bit, port in enumerate(("a", "b")):
                op_of(element, port)[:] = [
                    _B_BAL,
                    b,
                    bit,
                    element.t_bff_fs,
                    element.coincidence_fs,
                    em1,
                    em2,
                ]
            state_map[eid] = (
                ("state", "bstate", b),
                ("hazard_events", "bhaz", b),
            )
        elif kind in ("drop", "jitter"):
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
        else:
            generic.append(element)
            for port in element.input_names:
                op_of(element, port)[:] = [_B_CALL, element, port]
        for port in element.input_names:
            inports[(eid, port)] = (
                element.input_priority(port) * _SEQ_SPAN,
                op_of(element, port),
            )

    prog.inports = inports
    prog.emit_tables = emit_tables
    prog.tap_index = tap_index
    prog.tap_keys = tap_keys
    prog.state_init = np.asarray(state_init, dtype=np.uint8)
    prog.n_mergers = n_mergers
    prog.n_balancers = n_balancers
    prog.fault_specs = fault_specs
    prog.generic = generic
    prog.state_map = state_map

    prog.analytic = all(
        kind == "fanout"
        or (kind == "merger" and element.dead_time == 0)
        for element, kind in zip(circuit.elements, kinds.values())
    ) and bool(circuit.elements)
    prog.profiles = None
    if prog.analytic:
        try:
            prog.profiles = _build_profiles(circuit, kinds, tap_index)
        except _NotAnalytic:
            prog.analytic = False
    return prog


def _build_profiles(circuit, kinds, tap_index):
    """Closed-form :class:`_Profile` per ``(element, input port)``.

    Raises :class:`_NotAnalytic` on feedback loops or when the response
    tree outgrows the caps (the event loop handles those circuits).
    """
    merger_index: Dict[int, int] = {}
    m = 0
    for element in circuit.elements:
        if kinds[id(element)] == "merger":
            merger_index[id(element)] = m
            m += 1

    memo: Dict[Tuple[int, str], _Profile] = {}

    def visit(el, port, stack):
        key = (id(el), port)
        got = memo.get(key)
        if got is not None:
            return got
        if key in stack:
            raise _NotAnalytic  # feedback loop: no static response tree
        stack.add(key)
        events = 1
        pulses = 0
        d_max = 0
        tap_parts: Dict[int, list] = {}
        mergers: Dict[int, int] = {}
        kind = kinds[id(el)]
        if kind == "merger":
            mergers[merger_index[id(el)]] = 0
        outs = ("q",) if kind == "merger" else el.TRANSITIONS[port][0][1]
        for out in outs:
            dq = el.delay
            pulses += 1
            ti = tap_index.get((id(el), out))
            if ti is not None:
                tap_parts.setdefault(ti, []).append(
                    np.asarray([dq], dtype=np.int64)
                )
            for wire in circuit._fanout.get((id(el), out), ()):
                child = visit(wire.sink, wire.sink_port, stack)
                off = dq + wire.delay
                events += child.events
                pulses += child.pulses
                if events > _ANALYTIC_EVENT_CAP:
                    raise _NotAnalytic
                if off + child.d_max > d_max:
                    d_max = off + child.d_max
                for cti, delays in child.taps.items():
                    tap_parts.setdefault(cti, []).append(delays + off)
                for cm, cd in child.mergers.items():
                    if cd + off > mergers.get(cm, -1):
                        mergers[cm] = cd + off
        taps = {}
        for ti, parts in tap_parts.items():
            merged = np.concatenate(parts)
            if merged.size > _ANALYTIC_TAP_CAP:
                raise _NotAnalytic
            taps[ti] = merged
        stack.discard(key)
        prof = _Profile(events, pulses, d_max, taps, mergers)
        memo[key] = prof
        return prof

    for element in circuit.elements:
        for port in element.input_names:
            visit(element, port, set())
    return memo


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

    ``mode`` is ``"analytic"`` or ``"event"``; both produce the same
    ``events``/``pulses``/``end_time`` a scalar sealed run of each lane
    would report.  Queue depth is not tracked (the master queue's depth
    has no per-lane meaning) and ``wall_s`` is the whole-batch wall time.
    """

    __slots__ = ("batch", "events", "pulses", "end_time", "wall_s", "mode")

    def __init__(self, batch, events, pulses, end_time, wall_s, mode):
        self.batch = batch
        self.events = events
        self.pulses = pulses
        self.end_time = end_time
        self.wall_s = wall_s
        self.mode = mode

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
    kernels and forces the event loop; an unbounded run on an eligible
    feed-forward circuit takes the analytic fast path.
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
        self._mlast = np.full((prog.n_mergers, B), -1, dtype=np.int64)
        self._mcoll = np.zeros((prog.n_mergers, B), dtype=np.int64)
        nb = prog.n_balancers
        self._bal_state = np.zeros((nb, B), dtype=np.uint8)
        self._bal_last_t = np.full((nb, B), -1, dtype=np.int64)
        self._bal_last_port = np.zeros((nb, B), dtype=np.uint8)
        self._bal_last_idx = np.zeros((nb, B), dtype=np.uint8)
        self._bal_pair = np.zeros((nb, B), dtype=bool)
        self._bal_haz = np.zeros((nb, B), dtype=np.int64)
        self._events = np.zeros(B, dtype=np.int64)
        self._pulses = np.zeros(B, dtype=np.int64)
        self._end = np.zeros(B, dtype=np.int64)
        self._recs: List[list] = [[] for _ in prog.tap_keys]  # (time, mask)
        self._arecs: List[list] = [[] for _ in prog.tap_keys]  # (times, lanes, delays)
        self._raw: List[tuple] = []
        self._heap: List[tuple] = []
        self._seq = 0
        self._now = 0
        self._mode: Optional[str] = None
        self._total_events = 0
        self._wall = 0.0
        self._ones = np.ones(B, dtype=bool)
        self._call_lane: Optional[int] = None
        self._clone_owner: Dict[int, int] = {}
        self._clones: Dict[int, list] = {}
        for element in prog.generic:
            lanes = [self._make_clone(element) for _ in range(B)]
            self._clones[id(element)] = lanes
            for clone in lanes:
                self._clone_owner[id(clone)] = id(element)
        self._faults = [
            _DropState(el, B) if kind == "drop" else _JitterState(el, B)
            for kind, el in prog.fault_specs
        ]

    def _make_clone(self, element: Element) -> Element:
        try:
            return type(element)(element.name, **element.params())
        except Exception as exc:
            raise SimulationError(
                f"cannot build per-lane clones of {element!r}: constructor "
                f"replay via params() failed ({exc}); give the cell a "
                "params()-recoverable constructor to run it under the batch "
                "kernel"
            ) from exc

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
        later ``run``) and forces event mode.  Analytic and event results
        cannot be mixed within one simulator lifetime — ``reset()`` first.
        """
        prog = self._program
        if prog.version != self.circuit._version:
            raise SimulationError(
                "circuit changed (topology or probes) after this "
                "BatchSimulator was built; construct a new BatchSimulator"
            )
        wall0 = perf_counter()
        want_event = (
            until is not None or not prog.analytic or self._mode == "event"
        )
        if want_event:
            if self._mode == "analytic":
                raise SimulationError(
                    "cannot continue an analytic batch run in event mode; "
                    "reset() and reschedule"
                )
            self._mode = "event"
            self._flush_raw_to_heap()
            self._run_events(until)
        else:
            self._mode = "analytic"
            self._run_analytic()
        self._wall += perf_counter() - wall0
        return BatchStats(
            batch=self.batch,
            events=self._events.copy(),
            pulses=self._pulses.copy(),
            end_time=self._end.copy(),
            wall_s=self._wall,
            mode=self._mode,
        )

    # -- analytic fast path ---------------------------------------------------
    def _run_analytic(self) -> None:
        prog = self._program
        B = self.batch
        for element, port, times, lanes in self._raw:
            prof = prog.profiles[(id(element), port)]
            if lanes is None:
                n = times.size
                self._events += prof.events * n
                self._pulses += prof.pulses * n
                tmax = int(times.max())
                np.maximum(self._end, tmax + prof.d_max, out=self._end)
                for m, dm in prof.mergers.items():
                    row = self._mlast[m]
                    np.maximum(row, tmax + dm, out=row)
                for ti, delays in prof.taps.items():
                    self._arecs[ti].append((times, None, delays))
            else:
                counts = np.bincount(lanes, minlength=B)
                self._events += prof.events * counts
                self._pulses += prof.pulses * counts
                has = counts > 0
                tmax = np.full(B, -1, dtype=np.int64)
                np.maximum.at(tmax, lanes, times)
                np.maximum(
                    self._end,
                    np.where(has, tmax + prof.d_max, self._end),
                    out=self._end,
                )
                for m, dm in prof.mergers.items():
                    row = self._mlast[m]
                    np.maximum(row, np.where(has, tmax + dm, row), out=row)
                for ti, delays in prof.taps.items():
                    self._arecs[ti].append((times, lanes, delays))
        self._raw.clear()
        self._total_events = int(self._events.sum())
        if self._total_events > self.max_events:
            raise SimulationError(
                f"exceeded max_events={self.max_events}; "
                "raise the budget for this batch size"
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
                elif kind == _B_MERGER:
                    _c, m, dead, dq, taps, rows = op
                    last = self._mlast[m]
                    ok = (last < 0) | (t - last >= dead)
                    reject = mask & ~ok
                    if reject.any():
                        self._mcoll[m][reject] += 1
                    accept = mask & ok
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
                elif kind == _B_BAL:
                    # Vectorized balancer Mealy machine (repro.core.
                    # balancer._MealyRouter.route, lane-parallel).  The
                    # lane-restricted event order equals the scalar order
                    # (kernel invariant), so sequential per-lane routing
                    # decisions map 1:1 onto these masked updates.
                    _c, b, pbit, t_bff, coinc, em1, em2 = op
                    lt = self._bal_last_t[b]
                    has = mask & (lt >= 0)
                    gap = t - lt
                    pair_hit = (
                        has
                        & (gap <= coinc)
                        & (self._bal_last_port[b] != pbit)
                        & self._bal_pair[b]
                    )
                    hazard = has & ~pair_hit & (gap < t_bff)
                    st = self._bal_state[b]
                    idx = np.where(hazard, self._bal_last_idx[b], st)
                    if hazard.any():
                        self._bal_haz[b] += hazard
                    toggle = mask & ~hazard
                    st[toggle] ^= 1
                    normal = mask & ~pair_hit & ~hazard
                    self._bal_pair[b][mask] = normal[mask]
                    lt[mask] = t
                    self._bal_last_port[b][mask] = pbit
                    self._bal_last_idx[b][mask] = idx[mask]
                    m1 = mask & (idx == 0)
                    m2 = mask & (idx == 1)
                    if m1.any():
                        self._emit(t, em1[0], em1[1], em1[2], m1)
                    if m2.any():
                        self._emit(t, em2[0], em2[1], em2[2], m2)
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
                elif kind == _B_CALL:
                    element, port = op[1], op[2]
                    clones = self._clones[id(element)]
                    self._now = now
                    try:
                        for lane in np.flatnonzero(mask).tolist():
                            self._call_lane = lane
                            clones[lane].handle(self, port, t)
                    finally:
                        self._call_lane = None
                else:  # pragma: no cover - compiler invariant
                    raise SimulationError(
                        f"corrupt batch program (kind {kind!r})"
                    )
        finally:
            self._now = now
        if until is not None:
            np.maximum(self._end, until, out=self._end)

    def emit(self, source: Element, port: str, time: int) -> None:
        """Pulse delivery for generic-cell callbacks (single-lane mask)."""
        lane = self._call_lane
        if lane is None:
            raise SimulationError(
                "BatchSimulator.emit is only valid inside a cell callback"
            )
        eid = self._clone_owner.get(id(source), id(source))
        table = self._program.emit_tables.get(eid)
        row = table.get(port) if table is not None else None
        if row is None:
            self._pulses[lane] += 1
            return
        mask = np.zeros(self.batch, dtype=bool)
        mask[lane] = True
        self._emit(time, 0, row[0], row[1], mask)

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
        for times, lanes, delays in self._arecs[ti]:
            if lanes is None:
                out += times.size * delays.size
            else:
                out += np.bincount(lanes, minlength=self.batch) * delays.size
        for _t, mask in self._recs[ti]:
            out += mask
        return out

    def port_times(self, element: Element, port: str, lane: int) -> List[int]:
        """Sorted pulse times recorded at a probed port in one lane."""
        ti = self._tap(element, port)
        parts = []
        for times, lanes, delays in self._arecs[ti]:
            sel = times if lanes is None else times[lanes == lane]
            if sel.size and delays.size:
                parts.append((sel[:, None] + delays[None, :]).ravel())
        direct = [t for t, mask in self._recs[ti] if mask[lane]]
        if direct:
            parts.append(np.asarray(direct, dtype=np.int64))
        if not parts:
            return []
        merged = np.concatenate(parts)
        merged.sort()
        return merged.tolist()

    def element_attr(self, element: Element, attr: str, lane: int, default=None):
        """Scalar-equivalent state attribute of ``element`` in one lane.

        Mirrors ``getattr(element, attr, default)`` on a scalar run: the
        batch arrays are consulted for vectorized cells, the per-lane
        clone for generic cells, and the element's own (never-touched)
        attribute as the fallback for state the batch kernel does not
        model (e.g. stateless cells).
        """
        eid = id(element)
        clones = self._clones.get(eid)
        if clones is not None:
            return getattr(clones[lane], attr, default)
        for name, kind, idx in self._program.state_map.get(eid, ()):
            if name != attr:
                continue
            if kind == "u8":
                return int(self._state[idx, lane])
            if kind == "mlast":
                value = int(self._mlast[idx, lane])
                return None if value < 0 else value
            if kind == "mcoll":
                return int(self._mcoll[idx, lane])
            if kind == "fault":
                f, field = idx
                return int(getattr(self._faults[f], field)[lane])
            if kind == "bstate":
                return int(self._bal_state[idx, lane])
            if kind == "bhaz":
                return int(self._bal_haz[idx, lane])
        return getattr(element, attr, default)

    @property
    def pending_events(self) -> int:
        """Master-queue entries still pending (0 after an unbounded run)."""
        return len(self._heap) + sum(
            chunk[2].size for chunk in self._raw
        )


# -- per-request lane slicing --------------------------------------------------
def lane_slices(lane_counts) -> List[slice]:
    """Contiguous per-request lane ranges for a coalesced batch run.

    The serving layer packs heterogeneous payloads into one
    :class:`BatchSimulator` run: request ``i`` contributes
    ``lane_counts[i]`` adjacent lanes (one per dot-product row, epoch,
    Monte-Carlo sample...).  This returns one :class:`slice` per request,
    valid into any ``(batch,)``-shaped per-lane array — ``port_counts``,
    :class:`BatchStats` fields — so results come back out per request:

        >>> lane_slices([2, 1, 3])
        [slice(0, 2, None), slice(2, 3, None), slice(3, 6, None)]

    Zero-lane requests are allowed (an empty slice keeps positions
    aligned); negative counts raise :class:`ConfigurationError`.
    """
    slices: List[slice] = []
    start = 0
    for count in lane_counts:
        count = int(count)
        if count < 0:
            raise ConfigurationError(
                f"lane counts must be >= 0, got {count}"
            )
        slices.append(slice(start, start + count))
        start += count
    return slices
