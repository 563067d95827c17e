"""Command-line interface for the dataflow synthesis frontend.

Usage::

    usfq-synth compile fir.json                    # netlist JSON to stdout
    usfq-synth compile fir.json --out fir.c.json   # ... or to a file
    usfq-synth compile fir.json --simulate         # also run + decode
    usfq-synth compile fir.json --no-opt --padding jtl
    usfq-synth check examples/specs/*.json         # gate a spec corpus
    usfq-synth check fir.json --fail-on warning --json
    python -m repro.synth compile fir.json         # module alias

``compile`` emits the deterministic compile document (byte-stable, so
golden files can lock it).  ``check`` compiles each spec and then runs
the full machine-checkable correctness story: the netlist linter, the
abstract interpreter's merger-collision proofs, and a simulation of the
compiled stimulus on both kernels decoded against the reference
evaluation of the spec.

Exit codes: 0 — everything clean below the ``--fail-on`` severity;
1 — at least one finding at or above it; 2 — a spec was unreadable or
malformed.  Severities: lint findings keep their own level, an
unproved merger is a ``warning`` (the interval domain is conservative,
not wrong), and a simulation mismatch or a lost pulse is always an
``error``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cli import gate_status, run, write_output
from repro.errors import SynthesisError
from repro.lint.report import Severity
from repro.synth.api import (
    analyze_program,
    compile_spec,
    lint_program,
)
from repro.synth.lower import CompiledProgram
from repro.synth.spec import DataflowSpec, spec_from_json

#: Simulator kernels ``check`` cross-validates (both must agree).
CHECK_KERNELS = ("reference", "sealed")


def _load_spec(path: Path) -> DataflowSpec:
    try:
        text = path.read_text()
    except OSError as exc:
        raise SynthesisError(f"cannot read {path}: {exc}") from exc
    return spec_from_json(text)


def _check_program(program: CompiledProgram) -> List[Dict[str, Any]]:
    """All findings for one compiled spec as severity-tagged dicts."""
    findings: List[Dict[str, Any]] = []
    lint = lint_program(program)
    for diagnostic in lint.diagnostics:
        entry = diagnostic.to_dict()
        entry["check"] = "lint"
        findings.append(entry)
    analysis = analyze_program(program)
    stats = analysis.report.stats
    unproved = stats["mergers_checked"] - stats["mergers_proved"]
    if unproved:
        findings.append({
            "check": "analyze",
            "severity": str(Severity.WARNING),
            "message": (
                f"{unproved} of {stats['mergers_checked']} merger(s) not"
                " proved collision-free by the interval domain"
            ),
        })
    expected = {o.ref: o.expected_level for o in program.outputs}
    for kernel in CHECK_KERNELS:
        outcome = program.simulate(kernel=kernel)
        if outcome.levels != expected:
            findings.append({
                "check": "simulate",
                "severity": str(Severity.ERROR),
                "message": (
                    f"{kernel} kernel decoded {outcome.levels}, reference"
                    f" evaluation expects {expected}"
                ),
            })
        if outcome.collisions:
            findings.append({
                "check": "simulate",
                "severity": str(Severity.ERROR),
                "message": (
                    f"{outcome.collisions} merger collision(s) under the"
                    f" {kernel} kernel — pulses lost"
                ),
            })
    return findings


def _cmd_compile(args: argparse.Namespace) -> int:
    path = Path(args.spec)
    spec = _load_spec(path)
    program = compile_spec(
        spec, optimize=not args.no_opt, padding=args.padding
    )
    rendered = program.to_json()
    if args.simulate:
        doc = json.loads(rendered)
        outcome = program.simulate()
        doc["simulation"] = {
            "levels": dict(sorted(outcome.levels.items())),
            "collisions": outcome.collisions,
            "events": outcome.events,
        }
        rendered = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        write_output(args.out, rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    results: List[Dict[str, Any]] = []
    for name in args.specs:
        path = Path(name)
        spec = _load_spec(path)
        program = compile_spec(
            spec, optimize=not args.no_opt, padding=args.padding
        )
        findings = _check_program(program)
        entry = {
            "spec": str(path),
            "name": spec.name,
            "spec_key": spec.key(),
            "jj": program.stats["jj"],
            "slot_fs": program.slot_fs,
            "findings": findings,
        }
        results.append(entry)
    if args.json:
        json.dump({"results": results}, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for entry in results:
            status = "FAIL" if _gate(args, [entry]) else "ok"
            print(
                f"[{status}] {entry['spec']} ({entry['name']},"
                f" {entry['jj']} JJ, slot {entry['slot_fs']} fs):"
                f" {len(entry['findings'])} finding(s)"
            )
            for finding in entry["findings"]:
                print(f"    [{finding['severity']}] {finding['check']}:"
                      f" {finding['message']}")
    return _gate(args, results)


def _gate(args: argparse.Namespace, results: List[Dict[str, Any]]) -> int:
    """The exit status ``--fail-on`` implies for these specs' findings."""
    return gate_status(args.fail_on, (
        Severity.parse(f["severity"]) for entry in results for f in entry["findings"]
    ))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="usfq-synth",
        description=(
            "Compile JSON dataflow specs (const/add/mul/delay/tap/matvec"
            " over unary pulse-stream and Race-Logic encodings) into"
            " balanced, lint-clean U-SFQ netlists."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile one spec and emit the netlist document"
    )
    p_compile.add_argument("spec", help="path to a dataflow spec (JSON)")
    p_compile.add_argument(
        "--out", metavar="FILE", help="write the document here (default: stdout)"
    )
    p_compile.add_argument(
        "--json", action="store_true",
        help="accepted for symmetry; compile output is always JSON",
    )
    p_compile.add_argument(
        "--simulate", action="store_true",
        help="also simulate the stimulus and append decoded levels",
    )
    p_compile.add_argument(
        "--no-opt", action="store_true",
        help="skip the T1-style cell-choice optimization pass",
    )
    p_compile.add_argument(
        "--padding", choices=("wire", "jtl"), default="wire",
        help="balancing delays as wire delays (default) or JTL pad cells",
    )
    p_compile.set_defaults(func=_cmd_compile)

    p_check = sub.add_parser(
        "check",
        help="compile spec(s) and gate on lint + proofs + simulation",
    )
    p_check.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="paths to dataflow specs (JSON)",
    )
    p_check.add_argument(
        "--fail-on", default="error",
        choices=("error", "warning", "info"),
        help="lowest severity that fails the run (default: error)",
    )
    p_check.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    p_check.add_argument(
        "--no-opt", action="store_true",
        help="skip the cell-choice optimization pass",
    )
    p_check.add_argument(
        "--padding", choices=("wire", "jtl"), default="wire",
        help="balancing delays as wire delays (default) or JTL pad cells",
    )
    p_check.set_defaults(func=_cmd_check)

    return run(parser, argv, lambda args: args.func(args))
