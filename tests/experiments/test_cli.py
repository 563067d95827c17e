"""The usfq-experiments CLI: output, exit codes, runner flags."""

import json

import pytest

from repro.experiments import registry
from repro.experiments.cli import main
from repro.experiments.report import ExperimentResult


@pytest.fixture(autouse=True)
def _sandbox_cache(tmp_path, monkeypatch):
    """Keep the default ``.usfq-cache`` out of the repo during tests."""
    monkeypatch.chdir(tmp_path)


@pytest.fixture(autouse=True)
def _isolate_kernel_env(monkeypatch):
    """Start every test from the default kernel choice."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)


def test_list_option(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig18" in out
    assert "table3" in out


def test_run_single_experiment(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "table2" in out
    assert "done: 1 experiment(s)" in out


def test_run_reports_claim_summary(capsys):
    main(["fig12"])
    out = capsys.readouterr().out
    assert "claims" in out
    assert "all claims hold" in out


def test_output_directory_written(tmp_path, capsys):
    assert main(["table2", "fig12", "--output", str(tmp_path / "reports")]) == 0
    capsys.readouterr()
    table2 = (tmp_path / "reports" / "table2.txt").read_text()
    fig12 = (tmp_path / "reports" / "fig12.txt").read_text()
    assert "nagaoka2019" in table2
    assert "Shift-register" in fig12


def test_unknown_experiment_exits_2_with_stderr_message(capsys):
    assert main(["fig99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown experiment 'fig99'" in captured.err
    assert "known:" in captured.err
    assert "fig18" in captured.err  # the message lists the valid ids


def _register_failing_experiment(monkeypatch):
    def failing():
        result = ExperimentResult("_fail", "forced failure", ["x"])
        result.add_row(1)
        result.add_claim("always differs", "1", "2", False)
        return result

    monkeypatch.setitem(registry.EXPERIMENTS, "_fail", failing)


def test_failing_claim_exits_nonzero(monkeypatch, capsys):
    """Regression: the CLI used to exit 0 even when claims differed."""
    _register_failing_experiment(monkeypatch)
    assert main(["_fail", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "1 claim(s) differ" in out


def test_fail_on_never_keeps_exit_zero(monkeypatch, capsys):
    _register_failing_experiment(monkeypatch)
    assert main(["_fail", "--no-cache", "--fail-on", "never"]) == 0
    assert "1 claim(s) differ" in capsys.readouterr().out


def test_kernel_choice_does_not_change_stdout(monkeypatch, capsys):
    """Sealed vs reference kernel: byte-identical reports."""
    ids = ["fig14", "fig12"]
    outputs = []
    for kernel in ("reference", "sealed"):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        assert main([*ids, "--no-cache"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_kernel_flag_recorded_in_manifest(monkeypatch, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    args = ["table2", "--no-cache", "--manifest", str(manifest)]
    monkeypatch.setenv("REPRO_KERNEL", "reference")
    assert main(args) == 0
    capsys.readouterr()
    assert json.loads(manifest.read_text())["kernel"] == "reference"
    monkeypatch.delenv("REPRO_KERNEL")
    assert main(args) == 0
    capsys.readouterr()
    assert json.loads(manifest.read_text())["kernel"] == "auto"


def test_cached_rerun_matches_and_hits(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    manifest = tmp_path / "m.json"
    args = ["table2", "fig12", "--cache-dir", cache_dir,
            "--manifest", str(manifest)]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert json.loads(manifest.read_text())["cache"]["misses"] == 2
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert warm == cold
    assert json.loads(manifest.read_text())["cache"]["hits"] == 2


def test_manifest_written_alongside_output(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["table2", "--output", str(out_dir)]) == 0
    capsys.readouterr()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["totals"]["experiments"] == 1
    assert manifest["experiments"]["table2"]["claims_total"] > 0


def test_measured_activity_swaps_table3(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    code = main([
        "table3", "--measured-activity", "--no-cache",
        "--manifest", str(manifest_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "measured switching activity" in out
    assert "assumed active (mW)" in out
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["experiments"]["table3-measured"]
    assert entry["metrics"]["gauges"]["activity.multiplier.measured"] > 0
    assert entry["metrics"]["gauges"]["activity.balancer.measured"] > 0


def test_measured_activity_without_table3_changes_nothing(capsys):
    plain = main(["fig12", "--no-cache"])
    first = capsys.readouterr().out
    flagged = main(["fig12", "--no-cache", "--measured-activity"])
    second = capsys.readouterr().out
    assert plain == flagged == 0
    assert first == second
