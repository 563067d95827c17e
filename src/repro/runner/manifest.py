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
#:    ``faults.*`` channel counters), per-point metrics for split sweeps,
#:    and ``stats.max_queue_depth``.
#: 4: added a top-level ``batch`` field (Monte-Carlo-coalesced sweeps).
#: 5: recorded the resolved worker count next to the raw request.
#: 6: dropped ``batch`` with ``usfq-experiments --batch``.
#: 7: dropped the worker-count fields and the per-point metrics with
#:    ``usfq-experiments --jobs``; every experiment runs in-process.
MANIFEST_SCHEMA = 7


def build_manifest(
    report: RunReport, requested: Optional[List[str]] = None
) -> dict:
    """Summarise one run as a JSON-ready dict (see docs/running.md)."""
    experiments = {}
    for experiment_id, outcome in report.outcomes.items():
        experiments[experiment_id] = {
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
    claims_total = sum(e["claims_total"] for e in experiments.values())
    claims_held = sum(e["claims_held"] for e in experiments.values())
    return {
        "schema": MANIFEST_SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
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
