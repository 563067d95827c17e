"""Which public boundaries the traced run wraps, and the per-layer metrics.

``install_*`` put :class:`tracer.Tracer` wrappers on one workload's layer
boundaries; ``*_metrics`` turn the recorded spans into the per-layer
numbers.  ``BENCHMARK.json`` names them, with unit and which way is
better; :data:`CATALOG` adds what that file cannot hold: the workloads on
whose path the layer lies, and the end-to-end metric (and workload) a
change to the layer should move.  A metric whose layer is not on a
workload's path reads 0 there.
"""

from __future__ import annotations

import hashlib
import statistics
from typing import Any, Dict, Iterable, List, Optional

from tracer import Span, Tracer, children_index, self_ms

SI, SB, SC, SH = "serve_interactive", "serve_burst", "synth_compile", "shard_fabric"
SERVE = (SI, SB)
ALL = (SI, SB, SC, SH)

#: name -> (workloads measured on, what it should move)
CATALOG: Dict[str, tuple] = {
    "serve.handle_ms": (SERVE, "op_p50_ms on serve_interactive"),
    "serve.http_ms": ((SI,), "op_p50_ms on serve_interactive"),

    "serve.parse_ms": (SERVE, "op_p50_ms on serve_burst (64 parses before the flush)"),
    "serve.cache.hit_ratio": (SERVE,
                              "ops_per_s on serve_interactive; 0 by design on serve_burst"),

    "serve.cache.lookup_ms": (SERVE, "ops_per_s on serve_interactive"),
    "serve.batcher.wait_ms": (SERVE,
                              "op_p50_ms on serve_interactive (about the 2 ms window)"),

    "serve.batcher.lanes": (SERVE, "ops_per_s on serve_burst"),
    "serve.batcher.dispatches": (SERVE,
                                 "ops_per_s on serve_burst (one dispatch per burst)"),

    "serve.tier.wait_ms": (SERVE, "op_tail_ms on serve_interactive"),
    "serve.engine.self_ms": (SERVE, "op_tail_ms on serve_interactive"),

    "serve.errors": (SERVE, "failed ops (error rate) on both serve workloads"),
    "core.dpu.stimulus_ms": (SERVE, "ops_per_s on serve_burst"),

    "pulsesim.batch.compile_ms": (SERVE, "setup_s on both serve workloads"),
    "pulsesim.batch.run_ms": (SERVE, "op_p50_ms on serve_interactive and serve_burst"),
    "pulsesim.batch.lane_ms": (SERVE, "ops_per_s on serve_burst"),
    "pulsesim.batch.events": (SERVE, "nothing: identical under simulator-only changes"),
    "synth.parse_ms": ((SC,), "op_p50_ms and ops_per_s on synth_compile"),
    "synth.expand_ms": ((SC,), "op_p50_ms and ops_per_s on synth_compile"),

    "synth.refeval_ms": ((SC,), "op_p50_ms and ops_per_s on synth_compile"),
    "synth.opt_ms": ((SC,), "op_p50_ms and ops_per_s on synth_compile"),

    "synth.lower_ms": ((SC,), "op_p50_ms and ops_per_s on synth_compile"),
    "synth.prim_nodes": ((SC,), "op_p50_ms on synth_compile"),

    "synth.cells": ((SC,), "synth.netlist_jj on synth_compile"),
    "synth.jj_elided": ((SC,), "synth.netlist_jj on synth_compile"),

    "synth.netlist_jj": ((SC,), "modelled area of the generated hardware"),
    "synth.netlist_latency_ns": ((SC,), "modelled run time of the generated hardware"),
    "lint.ms": ((SC,), "op_p50_ms on synth_compile"),
    "analyze.ms": ((SC,), "op_p50_ms on synth_compile"),

    "analyze.mergers_proved": ((SC,), "analyze.mergers_unproved"),
    "analyze.mergers_unproved": ((SC,),
                                 "nothing end to end: a precision gap, not a wrong output"),

    "pulsesim.sealed.compile_ms": ((SC, SH), "op_tail_ms on synth_compile"),
    "pulsesim.sealed.run_ms": ((SC, SH),
                               "op_tail_ms on synth_compile (size tail only); "
                               "ops_per_s on shard_fabric"),
    "pulsesim.sealed.events": ((SC, SH), "nothing: identical under simulator-only changes"),
    "pulsesim.sealed.events_per_s": ((SC, SH), "ops_per_s on shard_fabric"),
    "shard.plan_ms": ((SH,), "setup_s on shard_fabric"),

    "parallel.spawn_ms": ((SH,), "ops_per_s on shard_fabric"),
    "shard.run_ms": ((SH,), "op_p50_ms on shard_fabric"),

    "shard.window_ms": ((SH,), "ops_per_s on shard_fabric"),
    "shard.windows": ((SH,), "ops_per_s on shard_fabric"),

    "shard.cuts": ((SH,), "ops_per_s on shard_fabric"),
    "shard.lookahead_fs": ((SH,), "shard.windows on shard_fabric"),

    "shard.noc_drops": ((SH,), "failed ops on shard_fabric"),
    "shard.sim_events_per_s": ((SH,), "ops_per_s on shard_fabric"),

    "process.cpu_s": (ALL, "with wall time, how busy the 2 CPUs were"),
    "process.cpu_util": (ALL, "ops_per_s where the work can overlap"),

    "trace.overhead_pct": (ALL, "nothing: cost of tracing itself"),
    "trace.uncovered_pct": (ALL, "nothing: share of op time no span explains"),

}


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def operand_key(a_slots: Iterable[int], b_counts: Iterable[int]) -> str:
    return ",".join(map(str, a_slots)) + "|" + ",".join(map(str, b_counts))


def body_key(body: bytes) -> str:
    return hashlib.blake2b(body, digest_size=8).hexdigest()


# -- serve ---------------------------------------------------------------------
class _JsonProxy:
    """Stands in for the ``json`` module inside ``repro.serve.server`` so
    that its ``json.loads`` call can be wrapped without touching any other
    caller of :func:`json.loads`."""

    def __init__(self, module: Any):
        self._module = module
        self.loads = module.loads

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def install_serve(tracer: Tracer) -> None:
    """Wrap the serve path: handle, parse, cache, batcher, tier, engine, DPU
    stimulus and the batch kernel."""
    import repro.serve.server as server
    from repro.core.dpu import DotProductUnit
    from repro.pulsesim.batch import BatchSimulator
    from repro.pulsesim.netlist import Circuit
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import ResponseCache
    from repro.serve.engine import ComputeEngine
    from repro.serve.workers import ExecutionTier

    submits: Dict[int, Span] = {}
    groups: Dict[int, Span] = {}

    per_parent: Dict[int, int] = {}

    def handle_place(args: tuple, kwargs: dict) -> Optional[Dict[str, Any]]:
        # Concurrent requests of one burst each get their own track.
        parent = tracer.current()
        if parent is None:
            return None
        lane = per_parent.get(parent.sid, 0)
        per_parent[parent.sid] = lane + 1
        return {"track": f"request {lane}"}

    def handle_opened(span: Span, args: tuple, kwargs: dict) -> None:
        span.attrs["key"] = body_key(args[3])

    def handle_closed(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["status"] = result[0]
        span.attrs["hit"] = result[3].get("X-Cache") == "hit"

    def submit_opened(span: Span, args: tuple, kwargs: dict) -> None:
        submits[id(args[1].operands)] = span

    def execute_opened(span: Span, args: tuple, kwargs: dict) -> None:
        operands_list = args[3]
        span.attrs["lanes"] = len(operands_list)
        for operands in operands_list:
            submit = submits.pop(id(operands), None)
            if submit is not None:
                wait = tracer.open("serve.batcher.wait", parent=submit,
                                   start=submit.start)
                tracer.close(wait, end=span.start)
                submit.adopted.append(span)
        groups[id(operands_list)] = span

    def engine_place(args: tuple, kwargs: dict) -> Optional[Dict[str, Any]]:
        execute = groups.pop(id(args[3]), None)
        return {"parent": execute, "op": None, "track": "batch"}

    def engine_opened(span: Span, args: tuple, kwargs: dict) -> None:
        if span.parent is not None:
            wait = tracer.open("serve.tier.wait", parent=span.parent,
                               start=span.parent.start)
            tracer.close(wait, end=span.start)

    def stimulus_opened(span: Span, args: tuple, kwargs: dict) -> None:
        span.attrs["keys"] = [operand_key(a, b) for a, b in zip(args[1], args[2])]

    def run_closed(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["events"] = [int(e) for e in result.events]

    proxy = _JsonProxy(server.json)
    tracer.replace(server, "json", proxy)
    tracer.wrap(proxy, "loads", "serve.parse.json")
    tracer.wrap(server, "parse_request", "serve.parse.request")
    tracer.wrap(server.ServeService, "handle", "serve.handle", place=handle_place,
                opened=handle_opened, closed=handle_closed)
    tracer.wrap(ResponseCache, "get", "serve.cache.get",
                closed=lambda span, a, k, r: span.attrs.update(hit=r is not None))
    tracer.wrap(MicroBatcher, "submit", "serve.batcher.submit", opened=submit_opened)
    tracer.wrap(ExecutionTier, "execute", "serve.tier.execute",
                place=lambda a, k: {"parent": None, "op": None, "track": "batch"},
                opened=execute_opened)
    tracer.wrap(ComputeEngine, "execute_group", "serve.engine",
                place=engine_place, opened=engine_opened)
    tracer.wrap(DotProductUnit, "run_counts_batch", "core.dpu.run_counts_batch",
                opened=stimulus_opened)
    tracer.wrap(Circuit, "seal_batch", "pulsesim.batch.compile")
    tracer.wrap(BatchSimulator, "run", "pulsesim.batch.run", closed=run_closed)


def serve_metrics(spans: List[Span], first_keys: List[str],
                  client_ms: Dict[int, float], since: int) -> Dict[str, float]:
    """Per-layer serve numbers.

    ``first_keys`` are the operand keys of the phase's first computed
    requests (their lane events are summed, an exact count); ``client_ms``
    maps a handle span id to the client-side latency of its request
    (interactive only); dispatches per handled request count from
    ``since``, the start of the first timed op, so the warm-up's do not.
    """
    kids = children_index(spans)
    by = _by_name(spans)
    handles = by.get("serve.handle", [])
    per_request_parse: Dict[int, float] = {}
    for span in by.get("serve.parse.json", []) + by.get("serve.parse.request", []):
        if span.parent is not None:
            per_request_parse[span.parent.sid] = (
                per_request_parse.get(span.parent.sid, 0.0) + span.ms)
    lookups = by.get("serve.cache.get", [])
    executes = by.get("serve.tier.execute", [])
    lanes = [span.attrs["lanes"] for span in executes]
    runs = by.get("pulsesim.batch.run", [])
    events_by_key: Dict[str, int] = {}
    for stim in by.get("core.dpu.run_counts_batch", []):
        for run in kids.get(stim.sid, []):
            if run.name == "pulsesim.batch.run":
                for key, events in zip(stim.attrs["keys"], run.attrs["events"]):
                    events_by_key.setdefault(key, events)
    return {
        "serve.handle_ms": median(span.ms for span in handles),
        "serve.http_ms": median(client_ms[span.sid] - span.ms
                                for span in handles if span.sid in client_ms),
        "serve.parse_ms": median(per_request_parse.values()),
        "serve.cache.hit_ratio": (sum(1 for s in lookups if s.attrs["hit"])
                                  / len(lookups)) if lookups else 0.0,
        "serve.cache.lookup_ms": median(span.ms for span in lookups),
        "serve.batcher.wait_ms": median(span.ms for span in by.get("serve.batcher.wait", [])),
        "serve.batcher.lanes": statistics.fmean(lanes) if lanes else 0.0,
        "serve.batcher.dispatches": (
            sum(1 for span in executes if span.start >= since)
            / max(1, sum(1 for span in handles if span.start >= since))),
        "serve.tier.wait_ms": median(span.ms for span in by.get("serve.tier.wait", [])),
        "serve.engine.self_ms": median(self_ms(span, kids)
                                       for span in by.get("serve.engine", [])),
        "serve.errors": float(sum(1 for span in handles if span.attrs["status"] != 200)),
        "core.dpu.stimulus_ms": median(self_ms(span, kids)
                                       for span in by.get("core.dpu.run_counts_batch", [])),
        "pulsesim.batch.compile_ms": max((span.ms for span in
                                          by.get("pulsesim.batch.compile", [])), default=0.0),
        "pulsesim.batch.run_ms": median(span.ms for span in runs),
        "pulsesim.batch.lane_ms": median(span.ms / len(span.attrs["events"])
                                         for span in runs),
        "pulsesim.batch.events": float(sum(events_by_key[key] for key in first_keys
                                           if key in events_by_key)),
    }


# -- synth ---------------------------------------------------------------------
def install_synth(tracer: Tracer) -> None:
    """Wrap the stages ``compile_spec`` calls, lint, analyze and the sealed
    kernel, each where the caller looks it up."""
    import repro.pulsesim.kernel as kernel
    import repro.synth.api as api
    from repro.pulsesim.simulator import Simulator
    from repro.synth.lower import CompiledProgram

    tracer.wrap(api, "spec_from_json", "synth.parse")
    tracer.wrap(api, "validate_spec", "synth.parse")
    tracer.wrap(api, "expand_spec", "synth.expand",
                closed=lambda s, a, k, r: s.attrs.update(prim_nodes=len(r.nodes)))
    tracer.wrap(api, "evaluate", "synth.refeval")
    tracer.wrap(api, "optimize_graph", "synth.opt",
                closed=lambda s, a, k, r: s.attrs.update(jj_elided=r[1].jj_saved))
    tracer.wrap(api, "lower_graph", "synth.lower",
                closed=lambda s, a, k, r: s.attrs.update(cells=r.stats["cells"]))
    tracer.wrap(api, "lint_program", "lint")
    tracer.wrap(api, "analyze_program", "analyze")
    tracer.wrap(CompiledProgram, "simulate", "synth.simulate")
    install_sealed(tracer, kernel, Simulator)


def install_sealed(tracer: Tracer, kernel: Any, simulator: Any) -> None:
    tracer.wrap(kernel, "compile_circuit", "pulsesim.sealed.compile")
    tracer.wrap(simulator, "run", "pulsesim.sealed.run",
                closed=lambda s, a, k, r: s.attrs.update(events=r.events_processed))


def sealed_metrics(spans: List[Span]) -> Dict[str, float]:
    by = _by_name(spans)
    runs = by.get("pulsesim.sealed.run", [])
    run_s = sum(span.ms for span in runs) / 1e3
    events = sum(span.attrs["events"] for span in runs)
    return {
        "pulsesim.sealed.compile_ms": median(s.ms for s in by.get("pulsesim.sealed.compile", [])),
        "pulsesim.sealed.run_ms": median(span.ms for span in runs),
        "pulsesim.sealed.events_per_s": events / run_s if run_s else 0.0,
    }


def synth_metrics(spans: List[Span], first_pass_ops: set) -> Dict[str, float]:
    """Per-spec stage medians; exact sums over the mix's first pass."""
    by = _by_name(spans)
    per_op: Dict[str, Dict[Any, float]] = {}
    for name in ("synth.parse", "synth.expand", "synth.refeval", "synth.opt",
                 "synth.lower", "lint", "analyze"):
        totals: Dict[Any, float] = {}
        for span in by.get(name, []):
            totals[span.op] = totals.get(span.op, 0.0) + span.ms
        per_op[name] = totals

    def exact(name: str, attr: str) -> float:
        return float(sum(span.attrs[attr] for span in by.get(name, [])
                         if span.op in first_pass_ops))

    out = {
        "synth.parse_ms": median(per_op["synth.parse"].values()),
        "synth.expand_ms": median(per_op["synth.expand"].values()),
        "synth.refeval_ms": median(per_op["synth.refeval"].values()),
        "synth.opt_ms": median(per_op["synth.opt"].values()),
        "synth.lower_ms": median(per_op["synth.lower"].values()),
        "synth.prim_nodes": exact("synth.expand", "prim_nodes"),
        "synth.cells": exact("synth.lower", "cells"),
        "synth.jj_elided": exact("synth.opt", "jj_elided"),
        "lint.ms": median(per_op["lint"].values()),
        "analyze.ms": median(per_op["analyze"].values()),
    }
    out.update(sealed_metrics(spans))
    return out


# -- shard ---------------------------------------------------------------------
def install_shard(tracer: Tracer) -> None:
    """Wrap plan, construction (worker spawn), run, each synchronization
    window and the sealed kernel of the monolithic reference."""
    import repro.pulsesim.kernel as kernel
    import repro.shard as shard
    from repro.parallel import ProcessActor
    from repro.pulsesim.simulator import Simulator
    from repro.shard import ShardSimulator

    window: Dict[str, Any] = {"span": None, "outstanding": 0}

    def submit_opened(span: Span, args: tuple, kwargs: dict) -> None:
        if args[1] == "advance":
            if window["span"] is None:
                window["span"] = tracer.open("shard.window", parent=span.parent,
                                             start=span.start)
            window["outstanding"] += 1

    def result_closed(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        if window["span"] is not None and isinstance(result, dict) and "next" in result:
            window["outstanding"] -= 1
            if window["outstanding"] == 0:
                tracer.close(window["span"], end=span.end)
                window["span"] = None

    tracer.wrap(shard, "plan_partition", "shard.plan")
    tracer.wrap(ShardSimulator, "__init__", "parallel.spawn")
    tracer.wrap(ShardSimulator, "run", "shard.run",
                closed=lambda s, a, k, r: s.attrs.update(events=r.events_processed))
    tracer.wrap(ProcessActor, "submit", "parallel.submit", opened=submit_opened)
    tracer.wrap(ProcessActor, "result", "parallel.result", closed=result_closed)
    install_sealed(tracer, kernel, Simulator)


def shard_metrics(spans: List[Span]) -> Dict[str, float]:
    by = _by_name(spans)
    out = {
        "shard.plan_ms": median(span.ms for span in by.get("shard.plan", [])),
        "parallel.spawn_ms": median(span.ms for span in by.get("parallel.spawn", [])),
        "shard.run_ms": median(span.ms for span in by.get("shard.run", [])),
        "shard.window_ms": median(span.ms for span in by.get("shard.window", [])),
    }
    out.update(sealed_metrics(spans))
    return out


def _by_name(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    out: Dict[str, List[Span]] = {}
    for span in spans:
        if span.end is not None:
            out.setdefault(span.name, []).append(span)
    return out
