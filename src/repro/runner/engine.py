"""The execution engine: cache lookup, then in-process runs in registry order.

``run_suite`` is what the CLI, benchmarks, and tests route through.  It

1. validates every requested id up front (``ConfigurationError`` before
   any work runs),
2. serves whatever it can from the :class:`~repro.runner.cache.ResultCache`,
3. runs the misses in the calling process, in registry order, capturing
   each experiment's simulator counters, metrics registry and
   fault-channel deltas, and stores them back into the cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.experiments.registry import EXPERIMENTS, VARIANTS, resolve_experiment
from repro.experiments.report import ExperimentResult
from repro.pulsesim import faults
from repro.pulsesim.kernel import resolve_kernel
from repro.pulsesim.simulator import SimulationStats, capture_stats
from repro.runner.cache import ResultCache
from repro.trace.metrics import capture_metrics, empty_metrics


@dataclass
class ExperimentOutcome:
    """One experiment's result plus what it cost this invocation."""

    experiment_id: str
    result: ExperimentResult
    stats: SimulationStats
    compute_time_s: float
    cache_status: str  # "hit" | "miss" | "off"
    #: Metrics snapshot (counters/gauges/histograms) for the experiment.
    metrics: dict = field(default_factory=empty_metrics)

    @property
    def failures(self) -> int:
        return len(self.result.claims) - self.result.claims_held


@dataclass
class RunReport:
    """Everything one ``run_suite`` invocation produced."""

    outcomes: Dict[str, ExperimentOutcome] = field(default_factory=dict)
    wall_time_s: float = 0.0
    cache_dir: Optional[str] = None
    source_digest: Optional[str] = None
    #: Effective simulator kernel ("auto", "reference", or "sealed") the
    #: run resolved to — recorded so manifests from the two kernels can be
    #: diffed for wall-time (the results themselves are bit-identical).
    kernel: str = "auto"

    @property
    def failures(self) -> int:
        return sum(outcome.failures for outcome in self.outcomes.values())

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.cache_status == "hit")

    @property
    def cache_misses(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.cache_status == "miss")


def _registry_ordered(ids: Iterable[str]) -> List[str]:
    requested = set(ids)
    ordered = list(EXPERIMENTS) + [v for v in VARIANTS if v not in EXPERIMENTS]
    return [eid for eid in ordered if eid in requested]


def _execute(experiment_id: str, cache_status: str) -> ExperimentOutcome:
    """Run one experiment, timing it and capturing what it recorded."""
    started = time.perf_counter()
    fault_base = faults.fault_totals()
    with capture_stats() as stats, capture_metrics() as registry:
        result = resolve_experiment(experiment_id)()
    metrics = registry.to_dict()
    # Fault channels count cumulatively per process; the experiment's
    # contribution is the delta.
    counters = metrics["counters"]
    for name, total in faults.fault_totals().items():
        delta = total - fault_base[name]
        if delta:
            counters[f"faults.{name}"] = counters.get(f"faults.{name}", 0) + delta
    metrics["counters"] = {name: counters[name] for name in sorted(counters)}
    return ExperimentOutcome(
        experiment_id,
        result,
        stats,
        time.perf_counter() - started,
        cache_status,
        metrics=metrics,
    )


def run_suite(
    ids: Sequence[str], cache: Optional[ResultCache] = None
) -> RunReport:
    """Run experiments in this process, cache-aware, in registry order."""
    started = time.perf_counter()
    for experiment_id in ids:
        resolve_experiment(experiment_id)  # fail fast on unknown ids

    report = RunReport(
        cache_dir=str(cache.directory) if cache else None,
        source_digest=cache.digest if cache else None,
        kernel=resolve_kernel(None),
    )
    ordered = _registry_ordered(ids)
    hits = {eid: cache.load(eid) for eid in ordered} if cache else {}
    for experiment_id in ordered:
        entry = hits.get(experiment_id)
        if entry is not None:
            outcome = ExperimentOutcome(
                experiment_id,
                entry.result,
                entry.stats,
                0.0,
                "hit",
                metrics=entry.metrics,
            )
        else:
            outcome = _execute(experiment_id, "miss" if cache else "off")
            if cache is not None:
                cache.store(
                    experiment_id,
                    outcome.result,
                    outcome.stats,
                    outcome.compute_time_s,
                    outcome.metrics,
                )
        report.outcomes[experiment_id] = outcome
    report.wall_time_s = time.perf_counter() - started
    return report
