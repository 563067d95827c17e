"""``usfq-trace``: run a traced workload and export observability artifacts.

Some paper figures are analytic (fig16's area curves run no simulation),
so the CLI maps each name to a *representative traced workload* of the
hardware unit that figure is about — e.g. ``fig16`` traces a DPU running
back-to-back dot-product epochs.  Artifacts:

* ``--vcd PATH``       IEEE-1364 VCD (one wire per traced cell output,
                       plus a ``queue_depth`` integer variable);
* ``--perfetto PATH``  Chrome/Perfetto trace-event JSON (one track per
                       port, ``queue_depth``/``cohort`` counter tracks);
* ``--metrics PATH``   metrics-registry snapshot as JSON.

``usfq-trace validate --vcd f --perfetto f`` structurally checks
previously written artifacts (used by CI on the uploaded files).
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import sys
from typing import List, Optional, Tuple

from repro.cli import make_dir, run, write_output
from repro.errors import ConfigurationError
from repro.trace.session import TraceSession

#: workload name -> (aliases, description)
WORKLOADS = {
    "multiplier": (
        ("fig04",),
        "unipolar multiplier: one epoch of a half-scale product",
    ),
    "counting": (
        ("fig07",),
        "8:1 counting network fed staggered pulse trains",
    ),
    "dpu": (
        ("fig14", "fig16"),
        "DPU running back-to-back dot-product epochs (the "
        "measured-activity workload)",
    ),
}


def resolve_workload(name: str) -> str:
    for workload, (aliases, _descr) in WORKLOADS.items():
        if name == workload or name in aliases:
            return workload
    known = sorted(
        list(WORKLOADS) + [a for aliases, _ in WORKLOADS.values() for a in aliases]
    )
    raise ConfigurationError(f"unknown workload {name!r}; known: {known}")


def _run_multiplier(args, session: TraceSession) -> List[str]:
    from repro.core.multiplier import UnipolarMultiplier
    from repro.encoding.epoch import EpochSpec

    epoch = EpochSpec(bits=args.bits)
    unit = UnipolarMultiplier(epoch)
    session.attach(unit.circuit)
    unit.trace = session
    half = epoch.n_max // 2
    count = unit.run_counts(half, half)
    return [f"multiplier: {half} x slot {half} -> {count} pulses"]


def _run_counting(args, session: TraceSession) -> List[str]:
    from repro.core.counting import CountingNetwork

    network = CountingNetwork(8)
    session.attach(network.circuit)
    network.trace = session
    slot = 20_000
    trains = [
        [slot * (lane + 1) * (i + 1) for i in range(lane + 1)]
        for lane in range(8)
    ]
    count = network.run(trains)
    total_in = sum(len(train) for train in trains)
    return [f"counting 8:1: {total_in} input pulses -> {count} output pulses"]


def _run_dpu(args, session: TraceSession) -> List[str]:
    from repro.trace.activity import measure_dpu_activity

    report = measure_dpu_activity(
        length=args.length,
        bits=args.bits,
        epochs=args.epochs,
        seed=args.seed,
        session=session,
    )
    return [
        f"dpu length={report.length} bits={report.bits} epochs={report.epochs}",
        f"measured multiplier activity: {report.multiplier_activity:.4f}",
        f"measured balancer activity:   {report.balancer_activity:.4f}",
        "assumed activity (table 3):   0.5000",
    ]


_RUNNERS = {
    "multiplier": _run_multiplier,
    "counting": _run_counting,
    "dpu": _run_dpu,
}


def _validate(args) -> int:
    from repro.trace.perfetto import validate_trace
    from repro.trace.vcd import parse_vcd

    if not args.vcd and not args.perfetto:
        raise ConfigurationError("validate needs --vcd and/or --perfetto")
    failures = 0
    if args.vcd:
        try:
            with open(args.vcd) as handle:
                info = parse_vcd(handle.read())
        except (OSError, ValueError) as error:
            print(f"vcd invalid: {error}", file=sys.stderr)
            failures += 1
        else:
            print(
                f"vcd ok: {len(info['vars'])} vars, "
                f"{info['change_count']} changes, "
                f"{len(info['times'])} timestamps"
            )
    if args.perfetto:
        try:
            with open(args.perfetto) as handle:
                info = validate_trace(json.load(handle))
        except (OSError, ValueError, RecursionError) as error:
            print(f"perfetto invalid: {error}", file=sys.stderr)
            failures += 1
        else:
            print(
                f"perfetto ok: {info['event_count']} events, "
                f"{len(info['tracks'])} tracks, "
                f"{info['pulse_count']} pulses, "
                f"counters {info['counter_series']}"
            )
    return 1 if failures else 0


def _build_parsers() -> Tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    trace = argparse.ArgumentParser(
        prog="usfq-trace",
        description="Run a traced U-SFQ workload and export VCD / Perfetto "
        "/ metrics artifacts.",
    )
    trace.add_argument("workload", nargs="?", help="workload name or figure alias")
    trace.add_argument("--list", action="store_true", help="list workloads")
    trace.add_argument("--vcd", metavar="PATH", help="write IEEE-1364 VCD here")
    trace.add_argument(
        "--perfetto", metavar="PATH", help="write Chrome/Perfetto JSON here"
    )
    trace.add_argument(
        "--metrics", metavar="PATH", help="write metrics-registry JSON here"
    )
    trace.add_argument("--length", type=int, default=8, help="DPU vector length")
    trace.add_argument("--bits", type=int, default=4, help="epoch resolution")
    trace.add_argument("--epochs", type=int, default=4, help="DPU epochs to run")
    trace.add_argument("--seed", type=int, default=None, help="workload RNG seed")
    trace.add_argument(
        "--pulse-width",
        type=int,
        default=None,
        metavar="FS",
        help="VCD pulse rendering width in femtoseconds",
    )

    validate = argparse.ArgumentParser(
        prog="usfq-trace validate",
        description="Structurally validate previously exported artifacts.",
    )
    validate.add_argument("--vcd", metavar="PATH")
    validate.add_argument("--perfetto", metavar="PATH")
    return trace, validate


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    trace_parser, validate_parser = _build_parsers()
    if argv and argv[0] == "validate":
        return run(validate_parser, argv[1:], _validate)
    return run(trace_parser, argv, _trace)


def _trace(args) -> int:
    if args.list:
        for workload, (aliases, descr) in sorted(WORKLOADS.items()):
            names = ", ".join([workload, *aliases])
            print(f"{names}: {descr}")
        return 0
    if not args.workload:
        raise ConfigurationError("name a workload or pass --list")
    workload = resolve_workload(args.workload)
    if args.pulse_width is not None and args.pulse_width < 1:
        raise ConfigurationError(
            f"--pulse-width must be >= 1 fs, got {args.pulse_width}"
        )
    for path in (args.vcd, args.perfetto, args.metrics):
        if path:
            make_dir(pathlib.Path(path).parent)
    if args.seed is None:
        from repro.trace.activity import DEFAULT_SEED

        args.seed = DEFAULT_SEED

    session = TraceSession(name=f"usfq-trace:{workload}")
    summary = _RUNNERS[workload](args, session)
    for line in summary:
        print(line)
    print(
        f"traced {len(session.ports)} ports, "
        f"{sum(tap.total for tap in session.ports)} pulses, "
        f"{len(session.health)} scheduler samples"
    )

    if args.vcd:
        from repro.trace.vcd import DEFAULT_PULSE_WIDTH_FS, write_vcd

        width = DEFAULT_PULSE_WIDTH_FS if args.pulse_width is None else args.pulse_width
        buffer = io.StringIO()
        write_vcd(session, buffer, pulse_width_fs=width)
        write_output(args.vcd, buffer.getvalue())
        print(f"wrote VCD: {args.vcd}")
    if args.perfetto:
        from repro.trace.perfetto import write_perfetto

        buffer = io.StringIO()
        write_perfetto(session, buffer)
        write_output(args.perfetto, buffer.getvalue())
        print(f"wrote Perfetto trace: {args.perfetto}")
    if args.metrics:
        text = json.dumps(session.metrics_dict(), indent=2, sort_keys=True)
        write_output(args.metrics, text + "\n")
        print(f"wrote metrics: {args.metrics}")
    return 0
