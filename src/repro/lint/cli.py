"""Command-line interface for the netlist linter.

Usage::

    python -m repro.lint --all-blocks            # lint every shipped block
    python -m repro.lint pnm dpu                 # lint a subset by name
    python -m repro.lint --list-blocks           # show lintable blocks
    python -m repro.lint --list-rules            # show the rule catalogue
    python -m repro.lint --all-blocks --json     # machine-readable output
    python -m repro.lint --all-blocks --fail-on warning
    usfq-lint --all-blocks                       # console-script alias

The exit code is 0 when no diagnostic reaches the ``--fail-on`` severity
(default ``error``) and 1 otherwise, so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from typing import List, Optional

from repro.cli import add_block_targets, add_fail_on, gate_status, run, selected_blocks
from repro.lint.blocks import lint_shipped_block
from repro.lint.report import Report
from repro.lint.rules import RULES, rule_catalogue


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="usfq-lint",
        description=(
            "Design-rule check, static timing analysis, and JJ-budget "
            "cross-check for the shipped U-SFQ netlists."
        ),
    )
    add_block_targets(parser, "lint")
    parser.add_argument(
        "--list-rules", action="store_true", help="list the rule catalogue"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON document instead of text"
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also print info-level diagnostics in text output",
    )
    parser.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="RULE",
        help="drop a rule's diagnostics (repeatable)",
    )
    add_fail_on(parser)
    return run(parser, argv, lambda args: _lint(parser, args))


def _lint(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.list_rules:
        for info in rule_catalogue():
            print(f"{info.name:20s} [{info.category}/{info.severity}] {info.summary}")
        return 0

    names = selected_blocks(parser, args, "lint")
    unknown_rules = set(args.suppress) - set(RULES)
    if unknown_rules:
        parser.error(
            f"--suppress: unknown rule(s) {', '.join(sorted(unknown_rules))}; "
            "see --list-rules"
        )

    reports: List[Report] = []
    for name in names:
        report = lint_shipped_block(name)
        if args.suppress:
            report = _resuppress(report, frozenset(args.suppress))
        reports.append(report)

    if args.json:
        print(json.dumps([report.to_dict() for report in reports], indent=2))
    else:
        for report in reports:
            print(report.format_text(verbose=args.verbose))
            print()
        errors = sum(len(r.errors) for r in reports)
        warnings = sum(len(r.warnings) for r in reports)
        print(
            f"linted {len(reports)} block(s): "
            f"{errors} error(s), {warnings} warning(s)"
        )
    return gate_status(
        args.fail_on, (d.severity for r in reports for d in r.diagnostics)
    )


def _resuppress(report: Report, rules: frozenset) -> Report:
    """Apply CLI-level rule suppression on top of a finished report."""
    kept = [d for d in report.diagnostics if d.rule not in rules]
    dropped = [d for d in report.diagnostics if d.rule in rules]
    return replace(
        report, diagnostics=kept, suppressed=report.suppressed + dropped
    )
