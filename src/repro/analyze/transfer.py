"""Sound per-cell transfer functions over :class:`PulseBounds`.

Each function maps the abstract input streams of one cell instance to
abstract output streams.  Soundness contract: for any concrete input
streams inside the input bounds, the cell's simulated output streams lie
inside the returned output bounds — counts, timestamps, and spacings.
The ``static-soundness`` oracle in :mod:`repro.verify` fuzzes exactly
this contract against the event kernel.

Two recurring arguments make most bounds easy:

* every cell emits at ``triggering-arrival + fixed delay``, so an output
  window is some driving port's window shifted by the cell delay; and
* emissions triggered by a subset of one port's pulses inherit at least
  that port's spacing guarantee (a subsequence is never closer-spaced
  than the full sequence).

Cells without a registered function get :func:`transfer_unknown`: counts
``[0, INF]``, window ``[earliest driven input, INF]`` (the kernel's
causality check forbids emitting into the past), no spacing guarantee —
always sound, never precise.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

from repro.analyze.domain import (
    INF,
    NONE,
    PulseBounds,
    sat_add,
    superpose,
)
from repro.pulsesim.element import Element

#: One cell's abstract input streams, keyed by input port name.
Inputs = Mapping[str, PulseBounds]
#: One cell's abstract output streams, keyed by output port name.
Outputs = Dict[str, PulseBounds]
TransferFn = Callable[[Element, Inputs], Outputs]

TRANSFER: Dict[str, TransferFn] = {}


def register(*kinds: str) -> Callable[[TransferFn], TransferFn]:
    def wrap(fn: TransferFn) -> TransferFn:
        for kind in kinds:
            TRANSFER[kind] = fn
        return fn

    return wrap


def transfer(element: Element, inputs: Inputs) -> Outputs:
    """Dispatch on the cell class name; unknown kinds degrade safely."""
    fn = TRANSFER.get(type(element).__name__, transfer_unknown)
    return fn(element, inputs)


def _delay(element: Element) -> int:
    # Same value as Element.propagation_delay_fs, without the property
    # hop — transfer functions sit on the analyzer's hot path.
    return getattr(element, "delay", 0)


def _in(inputs: Inputs, port: str) -> PulseBounds:
    return inputs.get(port, NONE)


def _stretch(bounds: PulseBounds, extra_max: int) -> PulseBounds:
    """Extend the late edge of a window by up to ``extra_max`` fs."""
    if bounds.is_none or extra_max == 0:
        return bounds
    return PulseBounds(bounds.n_lo, bounds.n_hi, bounds.t_min,
                       sat_add(bounds.t_max, extra_max), bounds.gap)


def transfer_unknown(element: Element, inputs: Inputs) -> Outputs:
    driven = [b for b in inputs.values() if not b.is_none]
    if not driven:
        return {port: NONE for port in element.output_names}
    t_min = min(b.t_min for b in driven)
    top = PulseBounds(0, INF, t_min, INF, 0)
    return {port: top for port in element.output_names}


# -- interconnect --------------------------------------------------------------
@register("Jtl")
def transfer_jtl(element: Element, inputs: Inputs) -> Outputs:
    return {"q": _in(inputs, "a").shift(_delay(element))}


@register("Splitter")
def transfer_splitter(element: Element, inputs: Inputs) -> Outputs:
    out = _in(inputs, "a").shift(_delay(element))
    return {"q1": out, "q2": out}


@register("Merger", "IdealMerger")
def transfer_merger(element: Element, inputs: Inputs) -> Outputs:
    """Confluence with dead time: the first arrival is always accepted;
    arrivals spaced >= dead_time are all accepted; accepted pulses are
    themselves spaced >= dead_time."""
    combined = superpose(_in(inputs, "a"), _in(inputs, "b"))
    if combined.is_none:
        return {"q": NONE}
    dead_time = int(getattr(element, "dead_time", 0))
    if dead_time > 0 and combined.gap < dead_time:
        # Collisions possible: only the first arrival is guaranteed through.
        n_lo = min(1, combined.n_lo)
    else:
        n_lo = combined.n_lo
    gap = max(combined.gap, dead_time) if combined.n_hi > 1 else combined.gap
    out = PulseBounds(n_lo, combined.n_hi, combined.t_min, combined.t_max,
                      gap)
    return {"q": out.shift(_delay(element))}


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


# -- toggles -------------------------------------------------------------------
def _double_gap(gap: int) -> int:
    return INF if gap >= INF else min(2 * gap, INF)


@register("Tff")
def transfer_tff(element: Element, inputs: Inputs) -> Outputs:
    a = _in(inputs, "a")
    out = a.scale_count(2, 2)
    if out.is_none:
        return {"q": NONE}
    out = PulseBounds(out.n_lo, out.n_hi, out.t_min, out.t_max,
                      _double_gap(a.gap))
    return {"q": out.shift(_delay(element))}


@register("Tff2")
def transfer_tff2(element: Element, inputs: Inputs) -> Outputs:
    a = _in(inputs, "a")
    delay = _delay(element)
    gap = _double_gap(a.gap)
    # Pulses alternate q1, q2, q1, ... starting at q1.
    q1_hi = (a.n_hi + 1) // 2 if a.n_hi < INF else INF
    q2_hi = a.n_hi // 2 if a.n_hi < INF else INF

    def port(n_lo: int, n_hi: int) -> PulseBounds:
        if n_hi == 0:
            return NONE
        return PulseBounds(n_lo, n_hi, a.t_min, a.t_max, gap).shift(delay)

    return {
        "q1": port((a.n_lo + 1) // 2, q1_hi),
        "q2": port(a.n_lo // 2, q2_hi),
    }


# -- storage -------------------------------------------------------------------
@register("Dff")
def transfer_dff(element: Element, inputs: Inputs) -> Outputs:
    d, clk = _in(inputs, "d"), _in(inputs, "clk")
    n_hi = min(d.n_hi, clk.n_hi)
    if n_hi == 0:
        return {"q": NONE}
    out = PulseBounds(0, n_hi, clk.t_min, clk.t_max, clk.gap)
    return {"q": out.shift(_delay(element))}


@register("Dff2")
def transfer_dff2(element: Element, inputs: Inputs) -> Outputs:
    a = _in(inputs, "a")
    delay = _delay(element)

    def readout(control: PulseBounds) -> PulseBounds:
        n_hi = min(a.n_hi, control.n_hi)
        if n_hi == 0:
            return NONE
        return PulseBounds(0, n_hi, control.t_min, control.t_max,
                           control.gap).shift(delay)

    return {"y1": readout(_in(inputs, "c1")),
            "y2": readout(_in(inputs, "c2"))}


@register("Ndro")
def transfer_ndro(element: Element, inputs: Inputs) -> Outputs:
    set_, clk = _in(inputs, "set"), _in(inputs, "clk")
    if set_.is_none or clk.is_none:
        return {"q": NONE}
    out = PulseBounds(0, clk.n_hi, clk.t_min, clk.t_max, clk.gap)
    return {"q": out.shift(_delay(element))}


@register("Bff")
def transfer_bff(element: Element, inputs: Inputs) -> Outputs:
    delay = _delay(element)

    def write(port: str) -> PulseBounds:
        drive = _in(inputs, port)
        if drive.is_none:
            return NONE
        return PulseBounds(0, drive.n_hi, drive.t_min, drive.t_max,
                           drive.gap).shift(delay)

    return {"q1": write("s1"), "q2": write("s2"),
            "nq1": write("r1"), "nq2": write("r2")}


# -- logic ---------------------------------------------------------------------
@register("Inverter")
def transfer_inverter(element: Element, inputs: Inputs) -> Outputs:
    a, clk = _in(inputs, "a"), _in(inputs, "clk")
    if clk.is_none:
        return {"q": NONE}
    # Each data pulse suppresses at most one clock emission.
    n_lo = max(0, clk.n_lo - a.n_hi) if a.n_hi < INF else 0
    out = PulseBounds(n_lo, clk.n_hi, clk.t_min, clk.t_max, clk.gap)
    return {"q": out.shift(_delay(element))}


@register("FirstArrival")
def transfer_first_arrival(element: Element, inputs: Inputs) -> Outputs:
    reset = _in(inputs, "reset")
    data = superpose(_in(inputs, "a"), _in(inputs, "b"))
    if data.is_none:
        return {"q": NONE}
    n_hi = min(data.n_hi, sat_add(1, reset.n_hi))
    n_lo = min(1, data.n_lo)  # the gate starts armed
    out = PulseBounds(n_lo, n_hi, data.t_min, data.t_max, data.gap)
    return {"q": out.shift(_delay(element))}


@register("LastArrival")
def transfer_last_arrival(element: Element, inputs: Inputs) -> Outputs:
    reset = _in(inputs, "reset")
    a, b = _in(inputs, "a"), _in(inputs, "b")
    n_hi = min(a.n_hi, b.n_hi, sat_add(1, reset.n_hi))
    if n_hi == 0:
        return {"q": NONE}
    union = superpose(a, b)
    out = PulseBounds(0, n_hi, union.t_min, union.t_max, union.gap)
    return {"q": out.shift(_delay(element))}


@register("Inhibit")
def transfer_inhibit(element: Element, inputs: Inputs) -> Outputs:
    reset = _in(inputs, "reset")
    a, b = _in(inputs, "a"), _in(inputs, "b")
    if a.is_none:
        return {"q": NONE}
    n_hi = min(a.n_hi, sat_add(1, reset.n_hi))
    n_lo = min(1, a.n_lo) if b.is_none else 0
    out = PulseBounds(n_lo, n_hi, a.t_min, a.t_max, a.gap)
    return {"q": out.shift(_delay(element))}


def _clocked_gate(element: Element, inputs: Inputs, data_hi: int) -> Outputs:
    clk = _in(inputs, "clk")
    n_hi = min(clk.n_hi, data_hi)
    if n_hi == 0:
        return {"q": NONE}
    out = PulseBounds(0, n_hi, clk.t_min, clk.t_max, clk.gap)
    return {"q": out.shift(_delay(element))}


@register("ClockedAnd")
def transfer_clocked_and(element: Element, inputs: Inputs) -> Outputs:
    data_hi = min(_in(inputs, "a").n_hi, _in(inputs, "b").n_hi)
    return _clocked_gate(element, inputs, data_hi)


@register("ClockedOr", "ClockedXor")
def transfer_clocked_or_xor(element: Element, inputs: Inputs) -> Outputs:
    data_hi = sat_add(_in(inputs, "a").n_hi, _in(inputs, "b").n_hi)
    return _clocked_gate(element, inputs, data_hi)


# -- mux / demux ---------------------------------------------------------------
@register("Mux")
def transfer_mux(element: Element, inputs: Inputs) -> Outputs:
    a0, a1 = _in(inputs, "a0"), _in(inputs, "a1")
    sel1 = _in(inputs, "sel1")
    union = superpose(a0, a1)
    if union.is_none:
        return {"q": NONE}
    if sel1.is_none and a1.is_none:
        # select stays 0 forever: channel 0 passes exactly.
        n_lo = a0.n_lo
    else:
        n_lo = 0
    out = PulseBounds(n_lo, union.n_hi, union.t_min, union.t_max, union.gap)
    return {"q": out.shift(_delay(element))}


@register("Demux")
def transfer_demux(element: Element, inputs: Inputs) -> Outputs:
    a = _in(inputs, "a")
    sel1 = _in(inputs, "sel1")
    delay = _delay(element)
    if a.is_none:
        return {"q0": NONE, "q1": NONE}
    q0_lo = a.n_lo if sel1.is_none else 0
    q0 = PulseBounds(q0_lo, a.n_hi, a.t_min, a.t_max, a.gap).shift(delay)
    if sel1.is_none:
        q1 = NONE
    else:
        q1 = PulseBounds(0, a.n_hi, a.t_min, a.t_max, a.gap).shift(delay)
    return {"q0": q0, "q1": q1}


# -- structural datapath cells -------------------------------------------------
@register("Balancer")
def transfer_balancer(element: Element, inputs: Inputs) -> Outputs:
    union = superpose(_in(inputs, "a"), _in(inputs, "b"))
    delay = _delay(element)
    if union.is_none:
        return {"y1": NONE, "y2": NONE}
    out = PulseBounds(0, union.n_hi, union.t_min, union.t_max,
                      union.gap).shift(delay)
    return {"y1": out, "y2": out}


@register("BffRoutingUnit")
def transfer_bff_routing(element: Element, inputs: Inputs) -> Outputs:
    delay = _delay(element)

    def steered(port: str) -> PulseBounds:
        drive = _in(inputs, port)
        if drive.is_none:
            return NONE
        return PulseBounds(0, drive.n_hi, drive.t_min, drive.t_max,
                           drive.gap).shift(delay)

    return {"c1_a": steered("a"), "c2_a": steered("a"),
            "c1_b": steered("b"), "c2_b": steered("b")}


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
