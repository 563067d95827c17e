"""Sound per-cell transfer functions over :class:`PulseBounds`.

Each function maps the abstract input streams of one cell instance to
abstract output streams.  Soundness contract: for any concrete input
streams inside the input bounds, the cell's simulated output streams lie
inside the returned output bounds — counts, timestamps, and spacings.
The ``static-soundness`` oracle in :mod:`repro.verify` fuzzes exactly
this contract against the event kernel.

A :class:`~repro.pulsesim.element.TableCell`'s bounds are read off its
transition table (:func:`transfer_table`), so each finite-state cell's
behaviour is written once.  A table cell emits at ``arrival + delay``,
at most one pulse per output per input pulse: an output's window is its
triggering ports' window shifted by the delay, its spacing at least
theirs, and its counts follow from the states the driven ports can reach
(:func:`_recipe`).  Timed tables are read with every guard-bit row
allowed, so their bounds hold for any timing.

Functions registered by class name in :data:`TRANSFER` cover the cells
without a table.  Any other cell gets :func:`transfer_unknown`: counts
``[0, INF]``, window ``[earliest driven input, INF]`` (the kernel's
causality check forbids emitting into the past), no spacing guarantee —
always sound, never precise.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Type

from repro.analyze.domain import INF, NONE, PulseBounds, sat_add, superpose
from repro.pulsesim.element import Element, Row, TableCell

#: One cell's abstract input streams, keyed by input port name.
Inputs = Mapping[str, PulseBounds]
#: One cell's abstract output streams, keyed by output port name.
Outputs = Dict[str, PulseBounds]
TransferFn = Callable[[Element, Inputs], Outputs]
#: One output's bounds from a table cell's input bounds and delay.
Rule = Callable[[Inputs, int], PulseBounds]

TRANSFER: Dict[str, TransferFn] = {}


def register(*kinds: str) -> Callable[[TransferFn], TransferFn]:
    def wrap(fn: TransferFn) -> TransferFn:
        for kind in kinds:
            TRANSFER[kind] = fn
        return fn

    return wrap


def transfer(element: Element, inputs: Inputs) -> Outputs:
    """Dispatch on the cell class; unknown kinds degrade safely."""
    return transfer_for(type(element))(element, inputs)


def transfer_for(cls: type) -> TransferFn:
    """The function registered under ``cls``'s name, else the one read off
    its table (:func:`transfer_table`, or :func:`transfer_unknown`)."""
    return TRANSFER.get(cls.__name__) or _derive(cls)


def transfer_table(element: Element, inputs: Inputs) -> Outputs:
    """Any :class:`TableCell`'s output bounds, read off its table."""
    return _derive(type(element))(element, inputs)


def _delay(element: Element) -> int:
    # Element.propagation_delay_fs without the property hop (hot path).
    return getattr(element, "delay", 0)


def _in(inputs: Inputs, port: str) -> PulseBounds:
    return inputs.get(port, NONE)


def transfer_unknown(element: Element, inputs: Inputs) -> Outputs:
    driven = [b for b in inputs.values() if not b.is_none]
    if not driven:
        return {port: NONE for port in element.output_names}
    t_min = min(b.t_min for b in driven)
    top = PulseBounds(0, INF, t_min, INF, 0)
    return {port: top for port in element.output_names}


# -- table cells ---------------------------------------------------------------
@lru_cache(maxsize=None)
def _derive(cls: type) -> TransferFn:
    """The dead-time rule for a table whose every port has the ``window``
    shape (the mergers); else one :func:`_recipe` per set of driven ports,
    built on first use.  As in the kernels, a cell that overrides ``handle``
    or ``emit`` does not run its table."""
    if not (issubclass(cls, TableCell) and cls.TRANSITIONS
            and cls.handle is TableCell.handle and cls.emit is Element.emit):
        return transfer_unknown
    shape, *others = {kind[:2] for kind in cls._shapes.values()}
    if not others and shape[0] == "window":
        return _dead_time_rule(shape[1], cls.GUARDS[0])
    ports = tuple(cls.TRANSITIONS)
    if len(ports) == 1 and not cls.GUARDS:
        return _recipe(cls, ports)  # an undriven input reads as silence
    bits = tuple((port, 1 << index) for index, port in enumerate(ports))
    recipes: List[Optional[TransferFn]] = [None] * (1 << len(ports))

    def transfer_cell(element: Element, inputs: Inputs) -> Outputs:
        get = inputs.get
        mask = 0
        for port, bit in bits:
            if get(port, NONE)[1]:
                mask |= bit
        recipe = recipes[mask]
        if recipe is None:
            driven = tuple(port for port, bit in bits if mask & bit)
            recipe = recipes[mask] = _recipe(cls, driven)
        return recipe(element, inputs)

    return transfer_cell


def _rows(cls: Type[TableCell], port: str, state: int) -> List[Row]:
    """The rows a pulse on ``port`` may take in ``state``, any guard bits."""
    rows = cls.TRANSITIONS[port]
    return [rows[code] for code in range(state, len(rows), cls._n_states)]


def _reach(cls: Type[TableCell], starts: Iterable[int],
           ports: Iterable[str]) -> Set[int]:
    """The states that pulses on ``ports`` can reach from ``starts``."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        state = todo.pop()
        for port in ports:
            for row in _rows(cls, port, state):
                if row[0] not in seen:
                    seen.add(row[0])
                    todo.append(row[0])
    return seen


def _fires(cls: Type[TableCell], ports: Iterable[str],
           states: Iterable[int], out: str) -> bool:
    """Whether a pulse on ``ports`` can emit ``out`` in one of ``states``."""
    return any(out in row[1] for state in states for port in ports
               for row in _rows(cls, port, state))


def _recipe(cls: Type[TableCell], driven: Tuple[str, ...]) -> TransferFn:
    """The transfer for pulses on the ``driven`` ports only.  An output's
    *triggers* are the driven ports that can emit it in a state reachable
    from ``INITIAL``; an output without one is silent."""
    outs = tuple(Element._as_spec(port).name for port in cls.OUTPUTS)
    if len(cls.TRANSITIONS) == 1 and not cls.GUARDS:
        rules = [_run_rule(cls, driven[0], out) for out in outs]
    else:
        reach = _reach(cls, (cls.INITIAL,), driven)
        rules = []
        for out in outs:
            triggers = [p for p in driven if _fires(cls, (p,), reach, out)]
            rules.append(_bounded_rule(cls, driven, triggers, reach, out)
                         if triggers else _silent)
    # Hot path: a lone output builds its dict literally, and outputs that
    # share one rule (a splitter's) share its result.
    if len(outs) == 1:
        out, rule = outs[0], rules[0]

        def transfer_one(element: Element, inputs: Inputs) -> Outputs:
            return {out: rule(inputs, _delay(element))}

        return transfer_one
    if len(set(rules)) == 1:
        rule = rules[0]

        def transfer_alike(element: Element, inputs: Inputs) -> Outputs:
            return dict.fromkeys(outs, rule(inputs, _delay(element)))

        return transfer_alike
    pairs = tuple(zip(outs, rules))

    def transfer_each(element: Element, inputs: Inputs) -> Outputs:
        delay = _delay(element)
        return {out: rule(inputs, delay) for out, rule in pairs}

    return transfer_each


def _silent(inputs: Inputs, delay: int) -> PulseBounds:
    return NONE


@lru_cache(maxsize=None)
def _pass(port: str) -> Rule:
    """An output that repeats ``port``'s pulses one for one."""

    def rule(inputs: Inputs, delay: int) -> PulseBounds:
        return inputs.get(port, NONE).shift(delay)

    return rule


def _run_rule(cls: Type[TableCell], port: str, out: str) -> Rule:
    """One input, untimed: its pulses walk one run of states from
    ``INITIAL`` until a state repeats.  ``out`` carries the emissions
    among the input's first ``n_lo``/``n_hi`` pulses, spaced at least the
    input gap times the fewest pulses between two emissions."""
    rows = cls.TRANSITIONS[port]
    seen: Dict[int, int] = {}
    fired: List[bool] = []
    state = cls.INITIAL
    while state not in seen:
        seen[state] = len(fired)
        fired.append(out in rows[state][1])
        state = rows[state][0]
    if all(fired):
        return _pass(port)
    start = seen[state]
    loop = fired[start:]
    hits = [pulse for pulse, hit in enumerate(fired + loop) if hit]
    step = min((b - a for a, b in zip(hits, hits[1:])), default=INF)

    def count(pulses: int) -> int:
        if pulses >= INF:
            return INF if any(loop) else sum(fired)
        if pulses <= start:
            return sum(fired[:pulses])
        laps, rest = divmod(pulses - start, len(loop))
        return sum(fired[:start]) + laps * sum(loop) + sum(loop[:rest])

    def rule(inputs: Inputs, delay: int) -> PulseBounds:
        a = inputs.get(port, NONE)
        n_hi = count(a[1])
        if not n_hi:
            return NONE
        gap = INF if step >= INF or a[4] >= INF else min(a[4] * step, INF)
        return PulseBounds(count(a[0]), n_hi, min(a[2] + delay, INF),
                           min(a[3] + delay, INF), gap)

    return rule


def _bounded_rule(cls: Type[TableCell], driven: Tuple[str, ...],
                  triggers: List[str], reach: Set[int], out: str) -> Rule:
    """``out``'s window and gap are its superposed triggers'.  A *cut* is
    a set of ports ``R`` such that, after any emission, no further one can
    happen without a pulse on ``R``.  ``n_hi`` is the least of the union's
    ``n_hi`` and, per cut, ``R``'s summed ``n_hi`` plus one if an emission
    can happen before the first pulse on ``R``.  ``n_lo`` is at least
    ``min(1, union n_lo)`` when every trigger emits in every state the
    other driven ports can reach before the first trigger pulse.  A single
    trigger *re-arms* itself when ``INITIAL`` and every state its pulse
    lands in are *armed* (it emits there on every row); then ``n_lo`` is
    at least its ``n_lo`` less the summed ``n_hi`` of the driven ports
    that can disarm it.
    """
    initial = (cls.INITIAL,)
    after = {row[0] for port in triggers for state in reach
             for row in _rows(cls, port, state) if out in row[1]}
    cuts: List[Tuple[Tuple[str, ...], int]] = []
    for size in range(len(driven) + 1):
        for cut in combinations(driven, size):
            if any(set(found) <= set(cut) for found, _ in cuts):
                continue  # a superset of a cut bounds no tighter
            rest = [port for port in driven if port not in cut]
            if not _fires(cls, rest, _reach(cls, after, rest), out):
                early = _fires(cls, rest, _reach(cls, initial, rest), out)
                # A cut holding every trigger, with no early emission,
                # bounds no tighter than the union.
                if early or not set(triggers) <= set(cut):
                    cuts.append((cut, int(early)))
    others = [port for port in driven if port not in triggers]
    first = all(out in row[1] for state in _reach(cls, initial, others)
                for port in triggers for row in _rows(cls, port, state))
    armed = {state for state in range(cls._n_states)
             if all(out in row[1] for row in _rows(cls, triggers[0], state))}
    rearm = len(triggers) == 1 and cls.INITIAL in armed and all(
        row[0] in armed for state in reach
        for row in _rows(cls, triggers[0], state))
    disarmers = [port for port in driven if any(
        row[0] not in armed for state in reach & armed
        for row in _rows(cls, port, state))]
    head, *tail = triggers

    def rule(inputs: Inputs, delay: int) -> PulseBounds:
        union = inputs[head]
        for port in tail:
            union = superpose(union, inputs[port])
        n_hi = union[1]
        for cut, early in cuts:
            total = early
            for port in cut:
                total = sat_add(total, inputs[port][1])
            n_hi = min(n_hi, total)
        n_lo = min(1, union[0]) if first else 0
        if rearm:
            lost = 0
            for port in disarmers:
                lost = sat_add(lost, inputs[port][1])
            if lost < INF:
                n_lo = max(n_lo, union[0] - lost)
        return PulseBounds(n_lo, n_hi, min(union[2] + delay, INF),
                           min(union[3] + delay, INF), union[4])

    return rule


def _dead_time_rule(out: str, guard: str) -> TransferFn:
    """The mergers' rule: a pulse emits ``out`` unless it lands within the
    ``guard`` bound (the dead time) of the last emission, so the first
    arrival is always accepted, and accepted pulses are spaced >= it."""

    def transfer_merger(element: Element, inputs: Inputs) -> Outputs:
        combined = NONE
        for bounds in inputs.values():
            combined = superpose(combined, bounds)
        if combined.is_none:
            return {out: NONE}
        dead_time = int(getattr(element, guard))
        if dead_time > 0 and combined.gap < dead_time:
            # Collisions possible: only the first arrival is guaranteed.
            n_lo = min(1, combined.n_lo)
        else:
            n_lo = combined.n_lo
        gap = (max(combined.gap, dead_time) if combined.n_hi > 1
               else combined.gap)
        merged = PulseBounds(n_lo, combined.n_hi, combined.t_min,
                             combined.t_max, gap)
        return {out: merged.shift(_delay(element))}

    return transfer_merger


# -- cells without a table -----------------------------------------------------
@register("DropChannel")
def transfer_drop(element: Element, inputs: Inputs) -> Outputs:
    a = _in(inputs, "a")
    drop_rate = float(getattr(element, "drop_rate", 0.0))
    n_lo = a.n_lo if drop_rate == 0.0 else 0
    return {"q": a.with_count(n_lo, a.n_hi)}


@register("JitterChannel")
def transfer_jitter(element: Element, inputs: Inputs) -> Outputs:
    a = _in(inputs, "a")
    if a.is_none:
        return {"q": NONE}
    std = int(getattr(element, "std_fs", 0))
    mean = int(getattr(element, "mean_fs", 0))
    if std == 0:
        return {"q": a.shift(mean)}
    # Gaussian displacement is unbounded above (delay clamps at zero
    # below), and reordering destroys the spacing guarantee.
    return {"q": PulseBounds(a.n_lo, a.n_hi, a.t_min, INF, 0)}


@register("NocLink")
def transfer_noclink(element: Element, inputs: Inputs) -> Outputs:
    """Temporal NoC link: shift by the minimum latency, serialize flits.

    Departures obey ``depart_i+1 >= depart_i + serialization``, so the
    output inherits at least the serialization slot as spacing.  When the
    input spacing already beats the slot, flits never queue (every flit
    departs at arrival + min latency) and at most ``delay // gap + 1``
    are in flight at once; otherwise a backlog can defer the last flit by
    one slot per queued flit and the FIFO bound may drop pulses.
    """
    a = _in(inputs, "a")
    if a.is_none:
        return {"q": NONE}
    delay = _delay(element)
    slot = int(getattr(element, "serialization_fs", 1))
    fifo = int(getattr(element, "fifo_depth", 1))
    if a.gap >= slot:
        extra = 0
        in_flight = delay // a.gap + 1 if a.gap > 0 else INF
    else:
        extra = INF if a.n_hi >= INF else (a.n_hi - 1) * slot
        in_flight = INF
    no_drops = a.n_hi <= fifo or in_flight <= fifo
    n_lo = a.n_lo if no_drops else 0
    gap = max(a.gap, slot) if a.n_hi > 1 else a.gap
    out = PulseBounds(n_lo, a.n_hi, a.t_min, sat_add(a.t_max, extra), gap)
    return {"q": out.shift(delay)}


@register("PulseIntegrator")
def transfer_integrator(element: Element, inputs: Inputs) -> Outputs:
    epoch = _in(inputs, "epoch")
    if epoch.is_none:
        return {"out": NONE}
    slot_fs = int(getattr(element, "slot_fs", 0))
    n_max = int(getattr(element, "n_max", 0))
    spread = slot_fs * n_max
    # Every epoch marker emits exactly one readout pulse, offset by the
    # accumulated count (0..n_max slots).
    gap = max(0, epoch.gap - spread) if epoch.gap < INF else INF
    out = PulseBounds(epoch.n_lo, epoch.n_hi, epoch.t_min,
                      sat_add(epoch.t_max, spread), gap)
    return {"out": out}


@register("RlBuffer", "RlMemoryCell")
def transfer_rl_buffer(element: Element, inputs: Inputs) -> Outputs:
    epoch_fs = int(getattr(element, "epoch_fs", 0))
    return {"out": _in(inputs, "in").shift(epoch_fs)}


@register("RlShiftRegister")
def transfer_rl_shiftreg(element: Element, inputs: Inputs) -> Outputs:
    epoch_fs = int(getattr(element, "epoch_fs", 0))
    depth = int(getattr(element, "depth", 1))
    return {"out": _in(inputs, "in").shift(depth * epoch_fs)}


@register("BurstPnm")
def transfer_burst_pnm(element: Element, inputs: Inputs) -> Outputs:
    trigger = _in(inputs, "trigger")
    if trigger.is_none:
        return {"out": NONE}
    count = int(getattr(element, "count", 0))
    spacing = int(getattr(element, "spacing_fs", 0))
    if count == 0:
        return {"out": NONE}
    n_lo = trigger.n_lo * count
    n_hi = trigger.n_hi * count if trigger.n_hi < INF else INF
    if trigger.n_hi <= 1:
        gap = spacing
    else:
        gap = 0  # bursts from distinct triggers may interleave
    out = PulseBounds(min(n_lo, n_hi), n_hi,
                      sat_add(trigger.t_min, spacing),
                      sat_add(trigger.t_max, spacing * count), gap)
    return {"out": out}


# -- epoch-relative timing -----------------------------------------------------
def epoch_latency_fs(element: Element) -> int:
    """Whole-epoch latency a cell adds *by design* (0 for everything else).

    RL storage cells hold a pulse for one (or ``depth``) full epochs and
    replay it in a later epoch; when proving paths against the computing
    epoch, that latency belongs to the epoch boundary, not the path, so
    the epoch-relative analysis subtracts it.
    """
    kind = type(element).__name__
    if kind in ("RlBuffer", "RlMemoryCell"):
        return int(getattr(element, "epoch_fs", 0))
    if kind == "RlShiftRegister":
        epoch_fs = int(getattr(element, "epoch_fs", 0))
        return int(getattr(element, "depth", 1)) * epoch_fs
    return 0


def epoch_relative_transfer(element: Element, inputs: Inputs) -> Outputs:
    """:func:`transfer` with whole-epoch storage latencies re-anchored.

    Used by the epoch-overflow check only; the plain :func:`transfer`
    windows (real simulated timestamps) remain the soundness-oracle
    contract.
    """
    outputs = transfer(element, inputs)
    latency = epoch_latency_fs(element)
    if not latency:
        return outputs
    rebased: Outputs = {}
    for port, bounds in outputs.items():
        if bounds.is_none:
            rebased[port] = bounds
            continue
        t_max = bounds.t_max if bounds.t_max >= INF else max(
            0, bounds.t_max - latency)
        rebased[port] = PulseBounds(bounds.n_lo, bounds.n_hi,
                                    max(0, bounds.t_min - latency),
                                    t_max, bounds.gap)
    return rebased
