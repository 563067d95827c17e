"""Shared netlist-legality helpers (the builder hoist).

Two construction-time legality disciplines, shared by the
:mod:`repro.verify` generator and the synthesis lowering pipeline so
both build against one implementation of the matching DRC rules:

* **explicit fanout** — SFQ outputs drive exactly one sink; fanning out
  requires splitter cells, each contributing a net gain of one output.
  :func:`splitters_needed` counts them; :func:`fanout_chain` materialises
  the chain in a circuit and hands back the per-leg endpoints with their
  splitter depths.
* **total observability** — every output port nothing consumes gets a
  recorder so no generated or synthesized circuit has dangling outputs
  (:func:`probe_unconsumed`).

Merger spacing is judged by the pulse-flow analyzer's single-wave
arrival sets (:func:`repro.analyze.checks.cell_arrival_sets`), which the
verify generator builds against directly.

This module deliberately imports only the cell/netlist layer, so
``repro.verify`` can depend on it without cycles.
"""

from __future__ import annotations

from typing import Container, List, Sequence, Tuple

from repro.cells.interconnect import Splitter
from repro.pulsesim.element import Element
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.probe import PulseRecorder

#: ``(element, port)`` — the endpoint convention shared with
#: :mod:`repro.lint.graph`.
Endpoint = Tuple[Element, str]


def splitters_needed(available: int, required: int) -> int:
    """Splitter cells needed to grow ``available`` outputs to ``required``.

    Each 1:2 splitter consumes one output and produces two — a net gain
    of one — so fan-in can only be served by adding one splitter per
    missing output.  This is the growth rule the verify generator applies
    before wiring any multi-input cell.
    """
    return max(0, required - available)


def fanout_chain(
    circuit: Circuit,
    prefix: str,
    source: Element,
    source_port: str,
    count: int,
) -> List[Tuple[Element, str, int]]:
    """Serve ``count`` consumers from one output via a splitter chain.

    Builds ``splitters_needed(1, count)`` splitters named
    ``{prefix}__s1..`` and returns one ``(element, port, depth)`` leg per
    consumer, where ``depth`` is the number of splitters the leg's pulse
    traverses (for latency bookkeeping).  ``count == 1`` returns the bare
    source endpoint at depth 0; chain wires carry zero delay so all leg
    latency is explicit in the depths.
    """
    if count < 1:
        raise ValueError(f"fanout chain needs >= 1 consumer, got {count}")
    if count == 1:
        return [(source, source_port, 0)]
    legs: List[Tuple[Element, str, int]] = []
    tail: Endpoint = (source, source_port)
    for index in range(1, splitters_needed(1, count) + 1):
        splitter = circuit.add(Splitter(f"{prefix}__s{index}"))
        circuit.connect(tail[0], tail[1], splitter, "a")
        legs.append((splitter, "q1", index))
        tail = (splitter, "q2")
    legs.append((tail[0], tail[1], count - 1))
    return legs


def probe_unconsumed(
    circuit: Circuit,
    outputs: Sequence[Endpoint],
    consumed: Container[int],
) -> List[PulseRecorder]:
    """Attach a recorder to every output endpoint nothing consumes.

    ``outputs`` lists candidate ``(element, port)`` endpoints in a
    deterministic order; ``consumed`` holds the indices that already
    drive a sink.  Every other endpoint gets a default
    :class:`~repro.pulsesim.probe.PulseRecorder`, satisfying the
    ``dangling-output`` design rule by construction.  Recorders are
    returned in ``outputs`` order.
    """
    return [
        circuit.probe(element, port)
        for slot, (element, port) in enumerate(outputs)
        if slot not in consumed
    ]
