"""The machine-readable run manifest.

One JSON document per CLI invocation, written alongside the text reports:
wall time, per-experiment simulation counters, cache hit/miss status, and
the claims scoreboard.  CI uploads it as a build artifact; tooling can
diff two manifests to spot regressions in cost or claims.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional

from repro.cli import write_output
from repro.runner.engine import RunReport

#: Bump on any backwards-incompatible manifest layout change.
#: 2: added the top-level ``kernel`` field (simulator kernel of the run).
#: 3: per-experiment ``metrics`` (counters/gauges/histograms, including
#:    ``faults.*`` channel counters), ``metrics_points`` for sweeps the
#:    runner split across workers, and ``stats.max_queue_depth``.
#: 4: added the top-level ``batch`` field (whether sweep experiments ran
#:    through their Monte-Carlo-coalescing ``run_points_batch`` hook).
#: 5: ``jobs`` is now the *resolved* worker count (``--jobs auto`` pins
#:    to the host CPU count) and ``jobs_requested`` preserves the raw
#:    request, so manifests from different hosts stay explainable.
#: 6: dropped the top-level ``batch`` field with ``usfq-experiments
#:    --batch``; every run takes the one per-point path.
MANIFEST_SCHEMA = 6


def build_manifest(
    report: RunReport, requested: Optional[List[str]] = None
) -> dict:
    """Summarise one run as a JSON-ready dict (see docs/running.md)."""
    experiments = {}
    for experiment_id, outcome in report.outcomes.items():
        entry = {
            "wall_time_s": round(outcome.compute_time_s, 6),
            "cache": outcome.cache_status,
            "claims_held": outcome.result.claims_held,
            "claims_total": len(outcome.result.claims),
            "stats": {
                "events_processed": outcome.stats.events_processed,
                "pulses_emitted": outcome.stats.pulses_emitted,
                "max_queue_depth": outcome.stats.max_queue_depth,
            },
            "metrics": outcome.metrics,
        }
        if outcome.metrics_points is not None:
            entry["metrics_points"] = outcome.metrics_points
        experiments[experiment_id] = entry
    claims_total = sum(e["claims_total"] for e in experiments.values())
    claims_held = sum(e["claims_held"] for e in experiments.values())
    return {
        "schema": MANIFEST_SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "jobs": report.jobs,
        "jobs_requested": report.jobs_requested,
        "kernel": report.kernel,
        "wall_time_s": round(report.wall_time_s, 6),
        "cache": {
            "dir": report.cache_dir,
            "source_digest": report.source_digest,
            "hits": report.cache_hits,
            "misses": report.cache_misses,
        },
        "requested": list(requested) if requested is not None else list(report.outcomes),
        "experiments": experiments,
        "totals": {
            "experiments": len(experiments),
            "claims_held": claims_held,
            "claims_total": claims_total,
            "failures": claims_total - claims_held,
        },
    }


def write_manifest(path: Path, manifest: dict) -> Path:
    """Write the manifest JSON (pretty-printed, trailing newline)."""
    write_output(path, json.dumps(manifest, indent=2) + "\n")
    return Path(path)
