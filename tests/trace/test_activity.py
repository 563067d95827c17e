"""Measured-activity extraction and its power-model plumbing."""

import pytest

from repro.models import power
from repro.trace import TraceSession, measure_dpu_activity
from repro.trace.activity import DEFAULT_SEED


def test_measure_dpu_activity_defaults():
    report = measure_dpu_activity()
    assert report.length == 8 and report.bits == 4 and report.epochs == 4
    assert 0.0 < report.multiplier_activity <= 1.0
    assert 0.0 < report.balancer_activity <= 1.0
    assert report.slots_per_port == report.epochs * (1 << report.bits)
    assert report.cell_group_pulses["multiplier"] > 0
    assert report.cell_group_pulses["balancer"] > 0


def test_measurement_is_deterministic_and_kernel_independent(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "reference")
    first = measure_dpu_activity()
    monkeypatch.setenv("REPRO_KERNEL", "sealed")
    second = measure_dpu_activity()
    assert first.multiplier_activity == second.multiplier_activity
    assert first.balancer_activity == second.balancer_activity
    assert first.cell_group_pulses == second.cell_group_pulses
    # A different seed gives a different workload.
    other = measure_dpu_activity(seed=DEFAULT_SEED + 1)
    assert other.cell_group_pulses != first.cell_group_pulses


def test_session_keeps_raw_trace_when_passed_in():
    session = TraceSession(name="activity")
    report = measure_dpu_activity(epochs=2, session=session)
    assert len(session.ports) > 0
    assert sum(tap.total for tap in session.ports) == sum(
        report.cell_group_pulses.values()
    )
    assert len(session.health) > 0


def test_power_model_accepts_per_component_overrides():
    assumed = power.dpu_active_w(32)
    measured = power.dpu_active_w(
        32, multiplier_activity=0.25, balancer_activity=0.25
    )
    assert measured == pytest.approx(assumed / 2)
    rows = power.table3_rows(
        length=32, multiplier_activity=0.2, balancer_activity=0.4
    )
    assert rows[0].active_w == pytest.approx(power.multiplier_active_w(0.2))
    assert rows[1].active_w == pytest.approx(power.balancer_active_w(0.4))
    assert rows[2].active_w == pytest.approx(
        32 * power.multiplier_active_w(0.2) + 31 * power.balancer_active_w(0.4)
    )


def test_table3_measured_variant_runs_and_holds():
    from repro.experiments.registry import VARIANTS, resolve_experiment
    from repro.trace.metrics import capture_metrics

    assert resolve_experiment("table3-measured") is VARIANTS["table3-measured"]
    with capture_metrics() as registry:
        result = VARIANTS["table3-measured"]()
    assert result.claims_held == len(result.claims)
    assert registry.gauge("activity.multiplier.measured").value > 0
    assert registry.gauge("activity.balancer.measured").value > 0


def test_measured_variant_not_in_default_suite():
    from repro.experiments.registry import EXPERIMENTS

    assert "table3-measured" not in EXPERIMENTS
