"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    usfq-experiments                 # run everything
    usfq-experiments fig18 fig19    # run a subset
    usfq-experiments --list         # show available experiment ids
    python -m repro.experiments     # same as usfq-experiments

Exit codes: 0 = every claim holds (or ``--fail-on never``), 1 = at least
one claim differs, 2 = unknown experiment id.  Results are cached under
``--cache-dir`` keyed by the source tree's content, so an unchanged tree
re-runs near-instantly; any edit under ``src/repro`` recomputes.
"""

from __future__ import annotations

import argparse
import pathlib
from typing import List, Optional

from repro.cli import make_dir, run, write_output
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import format_result
from repro.runner import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    build_manifest,
    run_suite,
    write_manifest,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="usfq-experiments",
        description="Regenerate the U-SFQ paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiment ids"
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        help="also write one <experiment>.txt report per experiment to DIR",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=str(DEFAULT_CACHE_DIR),
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always recompute; neither read nor write the result cache",
    )
    parser.add_argument(
        "--manifest",
        metavar="FILE",
        help="write the JSON run manifest here "
        "(default: <output dir>/manifest.json when --output is given)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("never", "claims"),
        default="claims",
        help="exit nonzero when claims differ (default: claims)",
    )
    parser.add_argument(
        "--measured-activity",
        action="store_true",
        help="swap table3 for its traced variant (table3-measured), which "
        "measures switching activity from a traced DPU run and reports "
        "measured vs assumed-0.5 power side by side",
    )
    return run(parser, argv, _experiments)


def _experiments(args: argparse.Namespace) -> int:
    if args.list:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0

    output_dir = pathlib.Path(args.output) if args.output else None
    manifest_path = args.manifest
    if manifest_path is None and output_dir is not None:
        manifest_path = output_dir / "manifest.json"
    if manifest_path is not None:
        make_dir(pathlib.Path(manifest_path).parent)
    if output_dir is not None:
        make_dir(output_dir)

    ids = args.experiments or list(EXPERIMENTS)
    if args.measured_activity:
        ids = ["table3-measured" if eid == "table3" else eid for eid in ids]
    cache = None if args.no_cache else ResultCache(pathlib.Path(args.cache_dir))
    suite = run_suite(ids, cache=cache)

    failures = 0
    for experiment_id in ids:
        result = suite.outcomes[experiment_id].result
        report = format_result(result)
        print(report)
        print()
        if output_dir is not None:
            write_output(output_dir / f"{experiment_id}.txt", report + "\n")
        failures += len(result.claims) - result.claims_held
    total_note = "all claims hold" if failures == 0 else f"{failures} claim(s) differ"
    print(f"done: {len(ids)} experiment(s), {total_note}")

    if manifest_path is not None:
        write_manifest(pathlib.Path(manifest_path), build_manifest(suite, ids))

    if failures and args.fail_on == "claims":
        return 1
    return 0
