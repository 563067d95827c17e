"""Registry mapping experiment ids to their run() callables."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.experiments import (
    fig02_primitives,
    fig03_encoding,
    fig04_multiplier,
    fig05_merger,
    fig07_balancer,
    fig08_adder,
    fig09_pnm,
    fig11_buffer,
    fig12_shiftreg,
    fig14_pe,
    fig16_dpu,
    fig18_fir,
    fig19_accuracy,
    fig20_regions,
    fig21_power,
    lint_blocks,
    shard_noc,
    table1,
    table2,
    table3,
    validation,
)
from repro.experiments.report import ExperimentResult

EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "fig02": fig02_primitives.run,
    "fig03": fig03_encoding.run,
    "fig04": fig04_multiplier.run,
    "fig05": fig05_merger.run,
    "fig07": fig07_balancer.run,
    "fig08": fig08_adder.run,
    "fig09": fig09_pnm.run,
    "fig11": fig11_buffer.run,
    "fig12": fig12_shiftreg.run,
    "fig14": fig14_pe.run,
    "fig16": fig16_dpu.run,
    "fig18": fig18_fir.run,
    "fig19": fig19_accuracy.run,
    "fig20": fig20_regions.run,
    "fig21": fig21_power.run,
    "lint": lint_blocks.run,
    "shard": shard_noc.run,
    "validation": validation.run,
}

#: Opt-in variants of registry experiments.  They resolve and run like any
#: experiment but are *not* in :data:`EXPERIMENTS`, so the default suite
#: (and its byte-stable stdout) never includes them; a CLI flag swaps the
#: id in (e.g. ``usfq-experiments table3 --measured-activity``).
VARIANTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table3-measured": table3.run_measured,
}


def resolve_experiment(experiment_id: str) -> Callable[[], ExperimentResult]:
    """Look up an experiment's run() callable, or raise ConfigurationError."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        pass
    try:
        return VARIANTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment by id (e.g. ``fig18``)."""
    return resolve_experiment(experiment_id)()


def run_all() -> List[ExperimentResult]:
    """Run every experiment in registry order."""
    return [runner() for runner in EXPERIMENTS.values()]
