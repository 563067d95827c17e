"""T1-style cell-choice optimization over the primitive graph.

Following the Bairamkulov et al. cell-substitution idea (PAPERS.md),
this pass chooses cheaper implementations for primitive nodes whose
operand values make the general cell redundant — all decisions are
static because RL weights in the IR are compile-time constants:

* ``delay`` by 0 slots is the identity (alias).
* A known-zero stream (0-level literal, product with the RL weight 0,
  sum of known zeros) collapses to a 0-level literal: the NDRO/merger
  tree is dead silicon.
* A ``mul`` whose stream operand provably never pulses at or after the
  RL slot passes everything — the 16-JJ multiplier is an 0-JJ alias.
  This covers the full-scale weight ``b == n_max`` (unit weight).
* ``add`` lanes that are known zeros are pruned; a single surviving
  lane makes the whole merger tree an alias.
* Dead code (anything no output needs after the rewrites) is dropped.

The pass preserves decoded values *and* exact tick multisets — the API
layer cross-checks the reference evaluation of the optimized graph
against the original on every compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.core.multiplier import MULTIPLIER_UNIPOLAR_JJ
from repro.models import area, technology as tech
from repro.synth.expand import PrimGraph, PrimNode


@dataclass(frozen=True)
class OptReport:
    """What the cell-choice pass achieved on one graph."""

    nodes_before: int
    nodes_after: int
    muls_elided: int
    zeros_folded: int
    lanes_pruned: int
    jj_before: int
    jj_after: int

    @property
    def jj_saved(self) -> int:
        return self.jj_before - self.jj_after


def estimate_jj(graph: PrimGraph) -> int:
    """Wire-padding JJ cost of lowering ``graph`` (mirrors the lowering
    tally: entries + epoch chain + multiplier blocks + fold mergers +
    fanout splitters)."""
    consumers: Dict[str, int] = {prim_id: 0 for prim_id in graph.nodes}
    for node in graph.nodes.values():
        for ref in node.args:
            consumers[ref] += 1
    for _ref, prim_id in graph.outputs:
        consumers[prim_id] += 1
    jj = 0
    muls = 0
    for node in graph.nodes.values():
        if node.op in ("sconst", "rconst"):
            jj += tech.JJ_JTL
        elif node.op == "mul":
            jj += MULTIPLIER_UNIPOLAR_JJ
            muls += 1
        elif node.op == "add":
            jj += max(0, len(node.args) - 1) * area.adder_unary_merger_jj()
        fanout = max(0, consumers[node.id] - 1)
        jj += fanout * tech.JJ_SPLITTER
    if muls:
        jj += tech.JJ_JTL  # in_epoch entry
        jj += max(0, muls - 1) * tech.JJ_SPLITTER
    return jj


def _max_slot(graph: PrimGraph, levels: Dict[str, int],
              cache: Dict[str, int], prim_id: str) -> int:
    """Largest slot index any pulse of a stream value can occupy
    (``-1`` for a provably empty stream)."""
    if prim_id in cache:
        return cache[prim_id]
    node = graph.nodes[prim_id]
    if node.op == "sconst":
        if node.level == 0:
            result = -1
        else:
            result = (node.level - 1) * graph.n_max // node.level
    elif node.op == "mul":
        stream_max = _max_slot(graph, levels, cache, node.args[0])
        result = min(stream_max, levels[node.args[1]] - 1)
    elif node.op == "add":
        result = max(
            _max_slot(graph, levels, cache, ref) for ref in node.args
        )
    elif node.op == "delay":
        result = _max_slot(graph, levels, cache, node.args[0])
        if result >= 0:
            result += node.slots
    else:  # pragma: no cover - rconst is never a stream operand
        raise AssertionError(f"not a stream primitive: {node.op!r}")
    cache[prim_id] = result
    return result


def optimize_graph(graph: PrimGraph) -> "tuple[PrimGraph, OptReport]":
    """Rewrite ``graph`` with the cell-choice rules; returns a new graph."""
    jj_before = estimate_jj(graph)
    out = PrimGraph(name=graph.name, bits=graph.bits, slot_fs=graph.slot_fs)
    alias: Dict[str, str] = {}
    levels: Dict[str, int] = {}  # static RL values, through delays
    zeros: Set[str] = set()  # provably silent streams
    muls_elided = 0
    zeros_folded = 0
    lanes_pruned = 0
    max_slot_cache: Dict[str, int] = {}

    def resolve(ref: str) -> str:
        while ref in alias:
            ref = alias[ref]
        return ref

    def emit_zero(node: PrimNode) -> None:
        nonlocal zeros_folded
        zeros_folded += 1
        zeros.add(node.id)
        out.emit(PrimNode(node.id, "sconst", level=0))

    for node in graph.nodes.values():
        args = tuple(resolve(ref) for ref in node.args)
        if node.op == "sconst":
            if node.level == 0:
                zeros.add(node.id)
            out.emit(node)
        elif node.op == "rconst":
            levels[node.id] = node.level
            out.emit(node)
        elif node.op == "delay":
            if node.slots == 0:
                alias[node.id] = args[0]
                continue
            arg = args[0]
            if arg in levels:
                levels[node.id] = levels[arg] + node.slots
            elif arg in zeros:
                # Delaying silence is still silence; keep the alias so
                # downstream zero folds fire, but emit nothing.
                alias[node.id] = arg
                continue
            out.emit(PrimNode(node.id, "delay", (arg,), slots=node.slots))
        elif node.op == "mul":
            stream, rl = args
            if stream in zeros or levels[rl] == 0:
                emit_zero(node)
                continue
            top = _max_slot(out, levels, max_slot_cache, stream)
            if top < levels[rl]:
                # Every tick precedes the reset: the product IS the
                # stream, the NDRO never blocks anything.
                muls_elided += 1
                alias[node.id] = stream
                continue
            out.emit(PrimNode(node.id, "mul", (stream, rl)))
        elif node.op == "add":
            live = [ref for ref in args if ref not in zeros]
            lanes_pruned += len(args) - len(live)
            if not live:
                emit_zero(node)
            elif len(live) == 1:
                alias[node.id] = live[0]
            else:
                out.emit(PrimNode(node.id, "add", tuple(live)))
        else:  # pragma: no cover - expand emits only PRIM_OPS
            raise AssertionError(f"unknown primitive op {node.op!r}")

    for ref, prim_id in graph.outputs:
        out.outputs.append((ref, resolve(prim_id)))

    # Dead-code elimination: keep only what the outputs reach.
    live_set: Set[str] = set()
    stack: List[str] = [prim_id for _ref, prim_id in out.outputs]
    while stack:
        prim_id = stack.pop()
        if prim_id in live_set:
            continue
        live_set.add(prim_id)
        stack.extend(out.nodes[prim_id].args)
    pruned = PrimGraph(name=out.name, bits=out.bits, slot_fs=out.slot_fs)
    for prim_id, node in out.nodes.items():
        if prim_id in live_set:
            pruned.nodes[prim_id] = node
    pruned.outputs = list(out.outputs)

    report = OptReport(
        nodes_before=len(graph.nodes),
        nodes_after=len(pruned.nodes),
        muls_elided=muls_elided,
        zeros_folded=zeros_folded,
        lanes_pruned=lanes_pruned,
        jj_before=jj_before,
        jj_after=estimate_jj(pruned),
    )
    return pruned, report


def resolve_outputs(graph: PrimGraph) -> Dict[str, str]:
    """Public ref -> producing primitive id (post-optimization view)."""
    return dict(graph.outputs)