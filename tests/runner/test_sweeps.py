"""Sweep-point decomposition: picklable units, order-independent assembly."""

import pickle

import pytest

from repro.experiments.registry import EXPERIMENTS, SWEEPS
from repro.experiments.report import format_result
from repro.runner.worker import WorkUnit, execute_unit

SWEEP_IDS = sorted(SWEEPS)


@pytest.mark.parametrize("experiment_id", SWEEP_IDS)
def test_sweep_modules_are_registered_experiments(experiment_id):
    assert experiment_id in EXPERIMENTS


@pytest.mark.parametrize("experiment_id", SWEEP_IDS)
def test_points_and_partials_pickle(experiment_id):
    module = SWEEPS[experiment_id]
    points = module.sweep_points()
    assert points, f"{experiment_id} exposes no sweep points"
    assert pickle.loads(pickle.dumps(points)) == points
    partial = module.run_point(points[0])
    pickle.loads(pickle.dumps(partial))


@pytest.mark.parametrize("experiment_id", ["fig14", "fig16", "fig18"])
def test_out_of_order_computation_assembles_identically(experiment_id):
    """Workers may finish in any order; index-sorted assembly fixes it."""
    module = SWEEPS[experiment_id]
    points = module.sweep_points()
    reversed_partials = [module.run_point(p) for p in reversed(points)]
    result = module.assemble(list(reversed(reversed_partials)))
    assert format_result(result) == format_result(module.run())


def test_fig19_point_kinds_cover_every_study():
    points = SWEEPS["fig19"].sweep_points(trials=1)
    kinds = [p[0] for p in points]
    assert kinds.count("sweep") == 4
    assert kinds.count("quant") == 2
    assert "distribution" in kinds
    assert "spectra" in kinds
    assert kinds.count("structural") == 6  # one per error rate


def test_fig19_unknown_point_rejected():
    with pytest.raises(ValueError, match="unknown fig19 sweep point"):
        SWEEPS["fig19"].run_point(("bogus", "", 0))


def test_execute_unit_runs_a_sweep_point():
    outcome = execute_unit(WorkUnit("fig14", 0, SWEEPS["fig14"].sweep_points()[0]))
    assert outcome.experiment_id == "fig14"
    assert outcome.point_index == 0
    assert outcome.payload["bits"] == 4
    assert outcome.duration_s >= 0


def test_execute_unit_runs_a_whole_experiment():
    outcome = execute_unit(WorkUnit("table2"))
    assert outcome.point_index is None
    assert format_result(outcome.payload).startswith("== table2")
