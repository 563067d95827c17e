"""Measured switching activity from traced runs.

The Table-3 power model (:mod:`repro.models.power`) assumes a switching
activity of 0.5 — every JJ on the datapath fires in half the slots.  That
is an *assumption* about the workload; this module measures the real
number by running a DPU with trace taps on every cell output and counting
how many pulses each port actually carried.

Activity of a port = pulses observed / slots offered, where slots offered
is ``epochs x n_max`` (an epoch has ``n_max`` slots and a port can carry
at most one SFQ pulse per slot).  A component's activity averages its
ports.  Multipliers and balancers are told apart by cell-name prefix:
``build_dpu`` names lanes ``dpu.mul{i}...`` and the counting network
``dpu.cn...``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.encoding.epoch import EpochSpec
from repro.errors import ConfigurationError
from repro.trace.session import TraceSession

#: Deterministic workload seed (the measurement must be reproducible).
DEFAULT_SEED = 20220301  # U-SFQ paper's publication month


@dataclass
class ActivityReport:
    """Measured switching activity of a traced DPU workload."""

    length: int
    bits: int
    epochs: int
    multiplier_activity: float
    balancer_activity: float
    overall_activity: float
    cell_group_pulses: Dict[str, int] = field(default_factory=dict)
    slots_per_port: int = 0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def measure_dpu_activity(
    length: int = 8,
    bits: int = 4,
    epochs: int = 4,
    seed: int = DEFAULT_SEED,
    session: Optional[TraceSession] = None,
) -> ActivityReport:
    """Run a traced DPU workload and measure per-component activity.

    The workload is ``epochs`` back-to-back dot products with operands
    drawn uniformly from the full encoding range by a seeded RNG, i.e. the
    "average operand" regime the 0.5 assumption describes.  Pass
    ``session`` to keep the raw trace (timelines, health) for export;
    otherwise a private session is used and discarded.
    """
    from repro.core.dpu import DotProductUnit

    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    epoch = EpochSpec(bits=bits)
    dpu = DotProductUnit(epoch, length)
    trace = session if session is not None else TraceSession()
    trace.attach(dpu.circuit)
    dpu.trace = trace

    rng = random.Random(seed)
    n_max = epoch.n_max
    a_frames = [
        [rng.randrange(n_max + 1) for _ in range(length)] for _ in range(epochs)
    ]
    b_frames = [
        [rng.randrange(n_max + 1) for _ in range(length)] for _ in range(epochs)
    ]
    dpu.run_epochs(a_frames, b_frames)

    slots = epochs * n_max
    multiplier_ports = []
    balancer_ports = []
    groups: Dict[str, int] = {"multiplier": 0, "balancer": 0, "other": 0}
    for tap in trace.ports:
        share = tap.total / slots
        if tap.cell.startswith("dpu.mul"):
            multiplier_ports.append(share)
            groups["multiplier"] += tap.total
        elif tap.cell.startswith("dpu.cn"):
            balancer_ports.append(share)
            groups["balancer"] += tap.total
        else:
            groups["other"] += tap.total

    report = ActivityReport(
        length=length,
        bits=bits,
        epochs=epochs,
        multiplier_activity=_mean(multiplier_ports),
        balancer_activity=_mean(balancer_ports),
        overall_activity=_mean(multiplier_ports + balancer_ports),
        cell_group_pulses=groups,
        slots_per_port=slots,
    )
    if session is None:
        trace.detach()
    return report
