"""Command-line interface for the pulse-flow abstract interpreter.

Usage::

    python -m repro.analyze --all-blocks           # analyze every block
    python -m repro.analyze pnm dpu                # a subset by name
    python -m repro.analyze --list-blocks          # show analyzable blocks
    python -m repro.analyze --all-blocks --json    # machine-readable output
    python -m repro.analyze --all-blocks --fail-on warning
    python -m repro.analyze dpu --output results/analyze/dpu.json
    usfq-analyze --all-blocks                      # console-script alias

The exit code is 0 when no live finding reaches the ``--fail-on``
severity (default ``error``) and 1 otherwise, so CI can gate on it
directly.  ``--bounds`` adds the full per-port bounds table to JSON
output (verbose; meant for debugging transfer functions).
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from repro.analyze.api import Analysis
from repro.analyze.blocks import analyze_shipped_block
from repro.cli import (
    add_block_targets,
    add_fail_on,
    gate_status,
    run,
    selected_blocks,
    write_output,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="usfq-analyze",
        description=(
            "Abstract-interpretation pulse-flow analysis for the shipped "
            "U-SFQ netlists: pulse-count/arrival-window bounds, epoch and "
            "merger-collision proofs, queue-depth and switching-energy "
            "envelopes."
        ),
    )
    add_block_targets(parser, "analyze")
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON document instead of text",
    )
    parser.add_argument(
        "--bounds",
        action="store_true",
        help="include the full per-port bounds table in JSON output",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also print waived findings in text output",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the JSON document to PATH instead of stdout",
    )
    add_fail_on(parser)
    return run(parser, argv, lambda args: _analyze(parser, args))


def _analyze(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    names = selected_blocks(parser, args, "analyze")
    analyses: List[Analysis] = [analyze_shipped_block(name) for name in names]

    if args.json or args.output:
        targets = []
        for analysis in analyses:
            entry = analysis.report.to_dict()
            if args.bounds:
                entry["bounds"] = analysis.bounds_table()
            targets.append(entry)
        document = {
            "targets": targets,
            "ok": all(a.report.ok for a in analyses),
        }
        text = json.dumps(document, indent=2)
        if args.output:
            write_output(args.output, text + "\n")
        else:
            print(text)
    else:
        for analysis in analyses:
            print(analysis.report.format_text(verbose=args.verbose))
            print()
        counts = [a.report.counts() for a in analyses]
        print(
            f"analyzed {len(analyses)} block(s): "
            f"{sum(c['error'] for c in counts)} error(s), "
            f"{sum(c['warning'] for c in counts)} warning(s)"
        )
    return gate_status(
        args.fail_on, (f.severity for a in analyses for f in a.report.findings)
    )
