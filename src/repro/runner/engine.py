"""The execution engine: cache lookup, fan-out, deterministic assembly.

``run_suite`` is what the CLI, benchmarks, and tests route through.  It

1. validates every requested id up front (``ConfigurationError`` before
   any work is scheduled),
2. serves whatever it can from the :class:`~repro.runner.cache.ResultCache`,
3. fans the remaining work across a process pool — whole experiments,
   plus *within*-experiment sweep points for experiments registered in
   :data:`~repro.experiments.registry.SWEEPS` — and
4. assembles results in registry order, so the output is byte-identical
   for any ``jobs`` value: every work unit is deterministic and the
   assembly order never depends on completion order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.experiments.registry import (
    EXPERIMENTS,
    SWEEPS,
    VARIANTS,
    resolve_experiment,
)
from repro.experiments.report import ExperimentResult
from repro.parallel import pool_map, resolve_jobs
from repro.pulsesim.kernel import resolve_kernel
from repro.pulsesim.simulator import SimulationStats
from repro.runner.cache import ResultCache
from repro.runner.worker import UnitOutcome, WorkUnit, execute_unit
from repro.trace.metrics import empty_metrics, merge_metric_dicts


@dataclass
class ExperimentOutcome:
    """One experiment's result plus what it cost this invocation."""

    experiment_id: str
    result: ExperimentResult
    stats: SimulationStats
    compute_time_s: float
    cache_status: str  # "hit" | "miss" | "off"
    #: Merged metrics snapshot (counters/gauges/histograms) for the whole
    #: experiment, and — when the runner split it into sweep points — the
    #: per-point snapshots in sweep order.
    metrics: dict = field(default_factory=empty_metrics)
    metrics_points: Optional[List[dict]] = None

    @property
    def failures(self) -> int:
        return len(self.result.claims) - self.result.claims_held


@dataclass
class RunReport:
    """Everything one ``run_suite`` invocation produced."""

    outcomes: Dict[str, ExperimentOutcome] = field(default_factory=dict)
    wall_time_s: float = 0.0
    jobs: int = 1
    #: The ``jobs`` value as requested (e.g. ``"auto"``) before
    #: :func:`repro.parallel.resolve_jobs` pinned it to a worker count.
    jobs_requested: str = "1"
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


def _execute(units: Sequence[WorkUnit], jobs: int) -> List[UnitOutcome]:
    # One shared fan-out implementation (repro.parallel) serves both this
    # runner and the shard engine; submission order == result order, so
    # the assembly below stays deterministic for any jobs value.
    return pool_map(execute_unit, units, jobs)


def run_suite(
    ids: Sequence[str],
    jobs: Union[int, str, None] = 1,
    cache: Optional[ResultCache] = None,
) -> RunReport:
    """Run experiments (cache-aware, optionally parallel); registry order.

    ``jobs`` accepts an int, a numeric string, or ``"auto"``/``None``
    (one worker per CPU); anything else raises ``ConfigurationError``.
    The resolved worker count lands in ``RunReport.jobs`` and the raw
    request in ``RunReport.jobs_requested`` — results are byte-identical
    either way, so manifests stay diffable across hosts.
    """
    started = time.perf_counter()
    jobs_requested = "auto" if jobs is None else str(jobs)
    jobs = resolve_jobs(jobs)
    for experiment_id in ids:
        resolve_experiment(experiment_id)  # fail fast on unknown ids

    report = RunReport(
        jobs=jobs,
        jobs_requested=jobs_requested,
        cache_dir=str(cache.directory) if cache else None,
        source_digest=cache.digest if cache else None,
        kernel=resolve_kernel(None),
    )

    # Phase 1: serve cache hits.
    to_compute: List[str] = []
    for experiment_id in _registry_ordered(ids):
        entry = cache.load(experiment_id) if cache else None
        if entry is not None:
            report.outcomes[experiment_id] = ExperimentOutcome(
                experiment_id,
                entry.result,
                entry.stats,
                0.0,
                "hit",
                metrics=entry.metrics,
            )
        else:
            to_compute.append(experiment_id)

    # Phase 2: fan out the misses.  Sweep-capable experiments split into
    # per-point units when a pool is available.
    units: List[WorkUnit] = []
    for experiment_id in to_compute:
        if jobs > 1 and experiment_id in SWEEPS:
            for index, point in enumerate(SWEEPS[experiment_id].sweep_points()):
                units.append(WorkUnit(experiment_id, index, point))
        else:
            units.append(WorkUnit(experiment_id))
    unit_outcomes = _execute(units, jobs)

    # Phase 3: deterministic assembly, in registry order.
    by_experiment: Dict[str, List[UnitOutcome]] = {}
    for outcome in unit_outcomes:
        by_experiment.setdefault(outcome.experiment_id, []).append(outcome)
    for experiment_id in to_compute:
        parts = by_experiment[experiment_id]
        stats = SimulationStats()
        for part in parts:
            stats.merge(part.stats)
        compute_time = sum(part.duration_s for part in parts)
        metrics_points = None
        if parts[0].point_index is None:
            result = parts[0].payload
        else:
            parts.sort(key=lambda p: p.point_index)
            result = SWEEPS[experiment_id].assemble([p.payload for p in parts])
            metrics_points = [part.metrics for part in parts]
        metrics = empty_metrics()
        for part in parts:  # after the point sort: deterministic merge order
            merge_metric_dicts(metrics, part.metrics)
        if cache is not None:
            cache.store(experiment_id, result, stats, compute_time, metrics)
        report.outcomes[experiment_id] = ExperimentOutcome(
            experiment_id,
            result,
            stats,
            compute_time,
            "miss" if cache else "off",
            metrics=metrics,
            metrics_points=metrics_points,
        )

    # Present outcomes in registry order regardless of compute order.
    report.outcomes = {
        eid: report.outcomes[eid] for eid in _registry_ordered(ids)
    }
    report.wall_time_s = time.perf_counter() - started
    return report
