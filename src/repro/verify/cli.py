"""Command-line interface for the conformance harness.

Usage::

    python -m repro.verify --profile ci --seed 0      # one CI campaign
    python -m repro.verify --profile smoke            # quick local check
    python -m repro.verify --max-examples 50          # cap the campaign
    python -m repro.verify --oracle kernel-differential --oracle time-shift
    python -m repro.verify --list-oracles             # show the matrix
    python -m repro.verify --replay tests/verify/corpus   # regression mode
    usfq-verify --profile ci --seed 0                 # console-script alias

Exit codes: 0 when every oracle held on every example (or every replayed
corpus entry passed), 1 when a discrepancy was found (shrunk
counterexamples are saved under ``--corpus-dir``), 2 for unusable
arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cli import run
from repro.verify.corpus import DEFAULT_CORPUS_DIR
from repro.verify.generator import PROFILES
from repro.verify.harness import VerifyConfig, replay_corpus, run_verify
from repro.verify.oracles import ORACLES


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="usfq-verify",
        description=(
            "Randomized netlist fuzzing with differential and metamorphic "
            "oracles over the U-SFQ pulse-simulator stack."
        ),
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="ci",
        help="campaign size envelope (default: ci)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; each example derives its own substream",
    )
    parser.add_argument(
        "--max-examples", type=int, default=None, metavar="N",
        help="override the profile's example count",
    )
    parser.add_argument(
        "--oracle", action="append", default=None, metavar="NAME",
        help="run only this oracle (repeatable; see --list-oracles)",
    )
    parser.add_argument(
        "--list-oracles", action="store_true",
        help="list the oracle matrix and exit",
    )
    parser.add_argument(
        "--corpus-dir", default=str(DEFAULT_CORPUS_DIR), metavar="DIR",
        help="where shrunk counterexamples are saved "
             f"(default: {DEFAULT_CORPUS_DIR})",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="keep counterexamples at generated size",
    )
    parser.add_argument(
        "--shrink-budget", type=int, default=400, metavar="CALLS",
        help="max oracle replays per shrink (default: 400)",
    )
    parser.add_argument(
        "--replay", metavar="DIR", default=None,
        help="replay every corpus entry under DIR instead of fuzzing",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON document instead of text",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    return run(parser, argv, _verify)


def _verify(args: argparse.Namespace) -> int:
    if args.list_oracles:
        return _list_oracles(args.json)
    if args.replay is not None:
        return _replay(args)
    return _fuzz(args)


def _list_oracles(as_json: bool) -> int:
    if as_json:
        catalogue = {
            name: (oracle.__doc__ or "").strip().split("\n")[0]
            for name, oracle in ORACLES.items()
        }
        print(json.dumps(catalogue, indent=2))
        return 0
    for name, oracle in ORACLES.items():
        summary = (oracle.__doc__ or "").strip().split("\n")[0]
        print(f"{name:22} {summary}")
    return 0


def _fuzz(args: argparse.Namespace) -> int:
    config = VerifyConfig(
        seed=args.seed,
        profile=args.profile,
        max_examples=args.max_examples,
        oracles=args.oracle,
        shrink=not args.no_shrink,
        shrink_budget=args.shrink_budget,
        corpus_dir=args.corpus_dir,
    )

    def progress(done: int, total: int) -> None:
        if not args.quiet and (done % 50 == 0 or done == total):
            print(f"  {done}/{total} examples", file=sys.stderr)

    report = run_verify(config, progress=progress)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        status = "OK" if report.ok else "FAIL"
        print(
            f"{status}: {report.examples} examples x "
            f"{report.oracle_runs // max(report.examples, 1)} oracles "
            f"({report.oracle_runs} runs, "
            f"{sum(report.inapplicable.values())} inapplicable) "
            f"in {report.wall_s:.1f}s "
            f"[profile={report.profile} seed={report.seed}]"
        )
        for disc in report.discrepancies:
            print(
                f"  example {disc.example}: {disc.oracle} failed "
                f"({len(disc.spec.cells)} -> {len(disc.shrunk.cells)} cells "
                f"after {disc.shrink_calls} shrink calls)"
            )
            print(f"    {disc.detail}")
            if disc.corpus_path:
                print(f"    saved: {disc.corpus_path}")
    return 0 if report.ok else 1


def _replay(args: argparse.Namespace) -> int:
    outcomes = replay_corpus(args.replay)
    if args.json:
        print(json.dumps(outcomes, indent=2))
    else:
        if not outcomes:
            print(f"no corpus entries under {args.replay}")
        for outcome in outcomes:
            status = "pass" if outcome["ok"] else "FAIL"
            print(f"{status}  {outcome['path']}  [{outcome['oracle']}]")
            if not outcome["ok"]:
                print(f"      {outcome['detail']}")
    return 0 if all(outcome["ok"] for outcome in outcomes) else 1
