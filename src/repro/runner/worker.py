"""Picklable work units executed by the runner's worker processes.

A :class:`WorkUnit` is either a whole experiment (``point_index is
None``) or one sweep point of an experiment listed in
:data:`repro.experiments.registry.SWEEPS`.  :func:`execute_unit` is a
module-level function so it pickles under every multiprocessing start
method; it captures the simulation counters accumulated while the unit
runs so the engine can total events/pulses per experiment, plus a
metrics-registry snapshot (anything the experiment recorded via
:func:`repro.trace.metrics.capture_metrics`, and the fault-channel
counter deltas) for the run manifest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.experiments.registry import SWEEPS, resolve_experiment
from repro.pulsesim import faults
from repro.pulsesim.simulator import SimulationStats, capture_stats
from repro.trace.metrics import capture_metrics, empty_metrics


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of work: an experiment or one sweep point."""

    experiment_id: str
    point_index: Optional[int] = None
    point: Any = None


@dataclass
class UnitOutcome:
    """What a worker sends back: the payload plus its cost."""

    experiment_id: str
    point_index: Optional[int]
    payload: Any  # ExperimentResult for whole units, partial dict for points
    stats: SimulationStats
    duration_s: float
    metrics: dict = field(default_factory=empty_metrics)


def execute_unit(unit: WorkUnit) -> UnitOutcome:
    """Run one unit, timing it and capturing simulator counters."""
    started = time.perf_counter()
    fault_base = faults.fault_totals()
    with capture_stats() as stats, capture_metrics() as registry:
        if unit.point_index is None:
            payload = resolve_experiment(unit.experiment_id)()
        else:
            payload = SWEEPS[unit.experiment_id].run_point(unit.point)
    metrics = registry.to_dict()
    # Fault channels count cumulatively per process (worker processes are
    # reused across units); the per-unit contribution is the delta.
    counters = metrics["counters"]
    for name, total in faults.fault_totals().items():
        delta = total - fault_base[name]
        if delta:
            counters[f"faults.{name}"] = counters.get(f"faults.{name}", 0) + delta
    metrics["counters"] = {name: counters[name] for name in sorted(counters)}
    return UnitOutcome(
        experiment_id=unit.experiment_id,
        point_index=unit.point_index,
        payload=payload,
        stats=stats,
        duration_s=time.perf_counter() - started,
        metrics=metrics,
    )
