"""Content-addressed on-disk cache of experiment results.

An entry's key is a digest of the experiment id, the serialisation format
version, and the full content of every Python source file under
``src/repro`` — so *any* edit to the reproduction's code invalidates every
cached result automatically, while re-running after an unrelated edit
(docs, tests, results) is a near-instant cache hit.  Entries are plain
JSON files, safe to delete at any time.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.digest import source_digest
from repro.experiments.report import ExperimentResult
from repro.pulsesim.simulator import SimulationStats
from repro.runner.serialize import FORMAT_VERSION, result_from_dict, result_to_dict
from repro.trace.metrics import empty_metrics

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path(".usfq-cache")

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CacheEntry",
    "ResultCache",
    "source_digest",  # hoisted to repro.digest; re-exported for callers
]


@dataclass
class CacheEntry:
    """A cached result plus the bookkeeping the manifest reports."""

    result: ExperimentResult
    stats: SimulationStats
    compute_time_s: float
    metrics: dict = field(default_factory=empty_metrics)


class ResultCache:
    """Loads and stores :class:`CacheEntry` objects under one directory."""

    def __init__(self, directory: Path, digest: Optional[str] = None):
        self.directory = Path(directory)
        self.digest = digest if digest is not None else source_digest()

    def key(self, experiment_id: str) -> str:
        payload = f"v{FORMAT_VERSION}:{experiment_id}:{self.digest}"
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    def path(self, experiment_id: str) -> Path:
        return self.directory / f"{experiment_id}-{self.key(experiment_id)}.json"

    def load(self, experiment_id: str) -> Optional[CacheEntry]:
        """Return the cached entry, or None on a miss or unreadable file."""
        path = self.path(experiment_id)
        try:
            payload = json.loads(path.read_text())
            return CacheEntry(
                result=result_from_dict(payload["result"]),
                stats=SimulationStats(**payload["stats"]),
                compute_time_s=payload["compute_time_s"],
                metrics=payload.get("metrics", empty_metrics()),
            )
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            return None

    def store(
        self,
        experiment_id: str,
        result: ExperimentResult,
        stats: SimulationStats,
        compute_time_s: float,
        metrics: Optional[dict] = None,
    ) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path(experiment_id)
        payload = {
            "format": FORMAT_VERSION,
            "experiment_id": experiment_id,
            "created_at": time.time(),
            "compute_time_s": compute_time_s,
            "stats": {
                "events_processed": stats.events_processed,
                "pulses_emitted": stats.pulses_emitted,
                "end_time": stats.end_time,
                "max_queue_depth": stats.max_queue_depth,
            },
            "metrics": metrics if metrics is not None else empty_metrics(),
            "result": result_to_dict(result),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)
        return path
