"""Reference evaluation of a primitive dataflow graph.

This is the oracle side of the synth-differential check: it evaluates a
:class:`~repro.synth.expand.PrimGraph` directly over *slot multisets* —
the denotational model of the two unary encodings — with no circuit,
timing, or cell semantics involved.  The lowered netlist simulation must
decode to exactly these values.

Model (paper §3):

* A pulse-stream value is a sorted multiset of slot indices (a sorted
  list); the decoded level is its cardinality.  Literals use the same
  uniform placement as the stimulus generator (``k * n_max // n``).
* An RL value is a single slot index (the value itself).
* ``mul`` keeps the stream ticks in slots strictly below the RL slot
  (the NDRO passes clk pulses between ``set`` and ``reset``); the
  resulting count equals ``unipolar_product_count``.
* ``add`` is multiset union; ``delay`` shifts every slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.multiplier import unipolar_product_count
from repro.synth.expand import PrimGraph


@dataclass(frozen=True)
class OutputValue:
    """Reference result for one public output."""

    ref: str
    encoding: str
    level: int
    ticks: Tuple[int, ...]


def uniform_slots(level: int, n_max: int) -> List[int]:
    """Slot indices of a uniformly spread ``level``-pulse stream literal.

    Mirrors :func:`repro.pulsesim.schedule.uniform_stream_times` with
    ``slot_fs = 1`` and ``start = 0``.
    """
    return [k * n_max // level for k in range(level)]


def evaluate(graph: PrimGraph) -> Dict[str, OutputValue]:
    """Evaluate all public outputs of ``graph``; keyed by value ref."""
    n_max = graph.n_max
    streams: Dict[str, List[int]] = {}
    levels: Dict[str, int] = {}

    for node in graph.nodes.values():
        if node.op == "sconst":
            streams[node.id] = uniform_slots(node.level, n_max)
        elif node.op == "rconst":
            levels[node.id] = node.level
        elif node.op == "add":
            streams[node.id] = sorted(
                tick for ref in node.args for tick in streams[ref]
            )
        elif node.op == "mul":
            ticks = streams[node.args[0]]
            slot = levels[node.args[1]]
            streams[node.id] = [tick for tick in ticks if tick < slot]
        elif node.op == "delay":
            ref = node.args[0]
            if ref in levels:
                levels[node.id] = levels[ref] + node.slots
            else:
                streams[node.id] = [
                    tick + node.slots for tick in streams[ref]
                ]
        else:  # pragma: no cover - expand emits only PRIM_OPS
            raise AssertionError(f"unknown primitive op {node.op!r}")

    results: Dict[str, OutputValue] = {}
    for ref, prim_id in graph.outputs:
        if prim_id in levels:
            results[ref] = OutputValue(
                ref=ref, encoding="rl", level=levels[prim_id], ticks=(),
            )
        else:
            ticks = streams[prim_id]
            results[ref] = OutputValue(
                ref=ref,
                encoding="stream",
                level=len(ticks),
                ticks=tuple(ticks),
            )
    return results


def expected_levels(graph: PrimGraph) -> Dict[str, int]:
    """Decoded integer level per public output ref."""
    return {ref: value.level for ref, value in evaluate(graph).items()}


def check_product_model(graph: PrimGraph) -> None:
    """Internal consistency: multiset product counts match the closed form.

    Every ``mul`` whose stream operand is a *uniform literal* must agree
    with :func:`repro.core.multiplier.unipolar_product_count`; used by
    the unit suite to tie this evaluator to the paper's Eq. 1 model.
    """
    n_max = graph.n_max
    for node in graph.nodes.values():
        if node.op != "mul":
            continue
        stream = graph.nodes[node.args[0]]
        rl = graph.nodes[node.args[1]]
        if stream.op != "sconst" or rl.op != "rconst":
            continue
        ticks = uniform_slots(stream.level, n_max)
        got = sum(1 for tick in ticks if tick < rl.level)
        want = unipolar_product_count(stream.level, rl.level, n_max)
        if got != want:
            raise AssertionError(
                f"uniform product mismatch at {node.id!r}:"
                f" multiset {got} vs closed form {want}"
            )
