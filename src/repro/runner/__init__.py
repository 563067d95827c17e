"""Cached execution engine for the paper's experiments.

The runner turns the experiment registry into a restartable batch job:

* **in-process runs** — ``run_suite(ids)`` runs each requested experiment
  in the calling process, in registry order, capturing its simulation
  counters and metrics;
* **result cache** — a content-addressed on-disk cache keyed by the
  experiment id and a digest of every source file under ``repro``, so an
  unchanged tree re-runs near-instantly and *any* source edit invalidates
  every entry;
* **run manifest** — a JSON record per invocation (wall time, simulation
  counters, cache hits, claims scoreboard) for CI artifacts and tooling.

Typical usage::

    from repro.runner import ResultCache, run_suite

    report = run_suite(["fig18", "fig19"], cache=ResultCache(".usfq-cache"))
    assert report.failures == 0
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, CacheEntry, ResultCache, source_digest
from repro.runner.engine import ExperimentOutcome, RunReport, run_suite
from repro.runner.manifest import MANIFEST_SCHEMA, build_manifest, write_manifest
from repro.runner.serialize import result_from_dict, result_to_dict

__all__ = [
    "DEFAULT_CACHE_DIR",
    "MANIFEST_SCHEMA",
    "CacheEntry",
    "ExperimentOutcome",
    "ResultCache",
    "RunReport",
    "build_manifest",
    "result_from_dict",
    "result_to_dict",
    "run_suite",
    "source_digest",
    "write_manifest",
]
