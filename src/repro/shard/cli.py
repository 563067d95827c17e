"""Command-line interface for multi-fabric sharding over the temporal NoC.

Usage::

    usfq-shard partition pnm --shards 4       # emit the ShardPlan JSON
    usfq-shard plan pnm --shards 4            # human-readable plan summary
    usfq-shard run pnm --shards 4 --jobs auto # partitioned run + equivalence
    python -m repro.shard ...                 # same as usfq-shard

``partition`` cuts a shipped block (the ``usfq-lint`` registry) into K
fabric shards and prints the plan as JSON — the archivable artifact.
``plan`` prints the same decision as a summary: per-shard JJ balance,
every cut with its static traffic bound, and the conservative-sync
lookahead.  ``run`` drives the partitioned system with a synthetic pulse
train and checks the probed ports bit-identical against a monolithic
sealed run of the same NoC-augmented circuit.

Exit codes: 0 = success (for ``run``: partitioned == monolithic), 1 =
``run`` divergence, 2 = bad arguments or unknown block.  Blocks built
from tie-order-sensitive cells (BFF/DFF2 routing) may legitimately
diverge when two pulses tie to the femtosecond; stagger the stimulus
(``--stagger-fs``) or pick another block.  Blocks containing composite
cells outside the export registry (``Balancer``, ``PulseIntegrator``)
cannot be sharded — shard workers rebuild their piece via
``import_netlist`` — and exit 2 with the importer's diagnostic.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro import cli
from repro.lint.blocks import BuiltBlock, build_shipped_block
from repro.pulsesim.simulator import Simulator
from repro.shard.engine import ShardSimulator
from repro.shard.partition import (
    LinkSpec,
    ShardPlan,
    build_noc_circuit,
    plan_partition,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("block", metavar="BLOCK",
                     help="shipped block name (see --list-blocks)")
    sub.add_argument("--shards", "-k", type=int, default=2, metavar="K",
                     help="number of fabric shards (default: 2)")
    sub.add_argument("--serialization-fs", type=int, default=None,
                     metavar="FS", help="NoC link serialization delay")
    sub.add_argument("--hop-latency-fs", type=int, default=None,
                     metavar="FS", help="NoC per-hop latency")
    sub.add_argument("--fifo-depth", type=int, default=None, metavar="N",
                     help="NoC link FIFO depth")


def _link_spec(args: argparse.Namespace) -> Optional[LinkSpec]:
    overrides = {
        key: value
        for key, value in (
            ("serialization_fs", args.serialization_fs),
            ("hop_latency_fs", args.hop_latency_fs),
            ("fifo_depth", args.fifo_depth),
        )
        if value is not None
    }
    return LinkSpec(**overrides) if overrides else None


def _plan_for(args: argparse.Namespace) -> "tuple[BuiltBlock, ShardPlan]":
    built = build_shipped_block(args.block)
    for element, port in built.observed_outputs:
        if not built.circuit._taps.get((id(element), port)):
            built.circuit.probe(element, port)
    plan = plan_partition(
        built.circuit,
        args.shards,
        link=_link_spec(args),
        entry_points=built.entry_points,
    )
    return built, plan


def _plan_summary(plan: ShardPlan) -> Dict[str, Any]:
    return {
        "circuit": plan.circuit_name,
        "num_shards": plan.num_shards,
        "cells_per_shard": [
            len(plan.cells_of(shard)) for shard in range(plan.num_shards)
        ],
        "jj_per_shard": list(plan.jj_by_shard),
        "cuts": len(plan.cuts),
        "cut_traffic_hi": plan.cut_traffic_hi,
        "lookahead_fs": plan.lookahead_fs,
        "link": {
            "serialization_fs": plan.link.serialization_fs,
            "hop_latency_fs": plan.link.hop_latency_fs,
            "fifo_depth": plan.link.fifo_depth,
        },
    }


def _cmd_partition(args: argparse.Namespace) -> int:
    _built, plan = _plan_for(args)
    text = plan.dumps()
    if args.output:
        cli.write_output(args.output, text)
        print(f"wrote plan to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    _built, plan = _plan_for(args)
    summary = _plan_summary(plan)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"{plan.circuit_name}: {plan.num_shards} shard(s)")
    for shard in range(plan.num_shards):
        print(f"  shard {shard}: {len(plan.cells_of(shard)):4d} cell(s), "
              f"{plan.jj_by_shard[shard]:6d} JJ")
    print(f"  cuts: {len(plan.cuts)} "
          f"(static traffic bound {plan.cut_traffic_hi} pulse(s))")
    for cut in plan.cuts:
        print(f"    {cut.link}: {cut.source} -> {cut.sink} "
              f"[shard {cut.source_shard} -> {cut.sink_shard}, "
              f"{cut.hops} hop(s), <= {cut.traffic_hi} pulse(s)]")
    if plan.lookahead_fs is None:
        print("  lookahead: n/a (no cuts; shards are independent)")
    else:
        print(f"  lookahead: {plan.lookahead_fs} fs per sync window")
    return 0


def _stimulus(built: BuiltBlock, pulses: int, gap_fs: int,
              stagger_fs: int) -> List["tuple[str, str, List[int]]"]:
    trains = []
    for index, (element, port) in enumerate(built.entry_points):
        offset = index * stagger_fs
        trains.append(
            (element.name, port,
             [offset + k * gap_fs for k in range(pulses)])
        )
    return trains


def _cmd_run(args: argparse.Namespace) -> int:
    built, plan = _plan_for(args)
    trains = _stimulus(built, args.pulses, args.gap_fs, args.stagger_fs)

    report: Dict[str, Any] = {"plan": _plan_summary(plan), "check": not args.no_check}

    mono_side: Optional[Dict[str, Any]] = None
    if not args.no_check:
        mono = build_noc_circuit(built.circuit, plan)
        sim = Simulator(mono, kernel="sealed")
        for cell, port, times in trains:
            sim.schedule_train(mono[cell], port, times)
        start = perf_counter()
        stats = sim.run()
        mono_side = {
            "events": stats.events_processed,
            "pulses": stats.pulses_emitted,
            "now": sim.now,
            "wall_s": round(perf_counter() - start, 6),
        }
        mono_recordings = {
            tap.probe.label: list(tap.probe.times)
            for taps in mono._taps.values()
            for tap in taps
        }
        report["monolithic"] = mono_side

    with ShardSimulator(built.circuit, plan, jobs=args.jobs) as sharded:
        for cell, port, times in trains:
            sharded.schedule_train(cell, port, times)
        merged = sharded.run()
        shard_side = {
            "events": merged.events_processed,
            "pulses": merged.pulses_emitted,
            "now": sharded.now,
            "windows": sharded.windows,
            "jobs": sharded.jobs,
            "wall_s": round(merged.wall_s, 6),
            "noc_drops": sharded.noc_drops(),
        }
        recordings = sharded.recordings()
    report["sharded"] = shard_side

    ok = True
    if mono_side is not None:
        ok = (
            recordings == mono_recordings
            and mono_side["events"] == shard_side["events"]
            and mono_side["pulses"] == shard_side["pulses"]
            and mono_side["now"] == shard_side["now"]
        )
        report["identical"] = ok

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"{plan.circuit_name}: {plan.num_shards} shard(s), "
              f"{len(plan.cuts)} cut(s), {shard_side['windows']} window(s), "
              f"jobs={shard_side['jobs']}")
        print(f"  sharded:    {shard_side['events']} events, "
              f"{shard_side['pulses']} pulses, now={shard_side['now']} fs, "
              f"{shard_side['wall_s']} s")
        if mono_side is not None:
            print(f"  monolithic: {mono_side['events']} events, "
                  f"{mono_side['pulses']} pulses, now={mono_side['now']} fs, "
                  f"{mono_side['wall_s']} s")
            print(f"  probed ports {'IDENTICAL' if ok else 'DIVERGED'}")
        drops = sum(shard_side["noc_drops"].values())
        if drops:
            print(f"  WARNING: {drops} pulse(s) dropped at NoC link FIFOs")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="usfq-shard",
        description=(
            "Partition a shipped U-SFQ block into fabric shards joined by "
            "temporal NoC links, and run the shards as synchronized worker "
            "processes."
        ),
    )
    cli.add_list_blocks(parser)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    partition = commands.add_parser(
        "partition", help="emit a ShardPlan as JSON")
    _add_common(partition)
    partition.add_argument("--output", metavar="FILE",
                           help="write the plan JSON here instead of stdout")

    plan = commands.add_parser(
        "plan", help="summarize the partition decision")
    _add_common(plan)
    plan.add_argument("--json", action="store_true",
                      help="emit the summary as JSON")

    run = commands.add_parser(
        "run", help="run the partitioned system and check equivalence")
    _add_common(run)
    run.add_argument("--jobs", default="1", metavar="N|auto",
                     help="worker processes; 'auto' = one per CPU "
                     "(default: 1, in-process)")
    run.add_argument("--pulses", type=int, default=32, metavar="N",
                     help="stimulus pulses per entry point (default: 32)")
    run.add_argument("--gap-fs", type=int, default=50_000, metavar="FS",
                     help="stimulus inter-pulse gap (default: 50000)")
    run.add_argument("--stagger-fs", type=int, default=137, metavar="FS",
                     help="per-entry-point stimulus offset (default: 137)")
    run.add_argument("--no-check", action="store_true",
                     help="skip the monolithic reference run")
    run.add_argument("--json", action="store_true",
                     help="emit the run report as JSON")

    def command(args: argparse.Namespace) -> int:
        if args.command is None:
            parser.error("pass a command: partition, plan, or run")
        handler = {
            "partition": _cmd_partition,
            "plan": _cmd_plan,
            "run": _cmd_run,
        }[args.command]
        return handler(args)

    return cli.run(parser, argv, command)
