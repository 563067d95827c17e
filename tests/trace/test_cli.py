"""usfq-trace CLI: artifact generation and validation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.trace.cli import main, resolve_workload


def test_resolve_workload_aliases():
    assert resolve_workload("fig16") == "dpu"
    assert resolve_workload("fig14") == "dpu"
    assert resolve_workload("fig04") == "multiplier"
    assert resolve_workload("counting") == "counting"
    with pytest.raises(ConfigurationError, match="unknown workload"):
        resolve_workload("fig99")


def test_list_option(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "dpu" in out and "fig16" in out


def test_no_workload_is_usage_error(capsys):
    assert main([]) == 2
    assert "workload" in capsys.readouterr().err


def test_fig16_emits_all_artifacts(tmp_path, capsys):
    vcd = tmp_path / "out.vcd"
    perfetto = tmp_path / "out.json"
    metrics = tmp_path / "out.metrics.json"
    code = main([
        "fig16",
        "--epochs", "2",
        "--vcd", str(vcd),
        "--perfetto", str(perfetto),
        "--metrics", str(metrics),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "measured multiplier activity" in out

    from repro.trace import parse_vcd, validate_trace

    vcd_info = parse_vcd(vcd.read_text())
    assert "queue_depth" in vcd_info["vars"].values()
    assert any(name.startswith("dpu.mul") for name in vcd_info["vars"].values())

    trace_info = validate_trace(json.loads(perfetto.read_text()))
    assert trace_info["counter_series"] == ["cohort", "queue_depth"]
    assert any(track.startswith("dpu.cn") for track in trace_info["tracks"])

    metrics_doc = json.loads(metrics.read_text())
    assert metrics_doc["counters"]["sim.events_processed"] > 0
    assert any(
        name.startswith("trace.pulses.dpu.mul")
        for name in metrics_doc["counters"]
    )
    assert metrics_doc["gauges"]["sim.max_queue_depth"] >= 1


def test_multiplier_and_counting_workloads(tmp_path):
    for name in ("multiplier", "counting"):
        vcd = tmp_path / f"{name}.vcd"
        assert main([name, "--vcd", str(vcd)]) == 0
        assert vcd.exists()


def test_validate_subcommand(tmp_path, capsys):
    vcd = tmp_path / "out.vcd"
    perfetto = tmp_path / "out.json"
    assert main(["fig16", "--epochs", "1", "--vcd", str(vcd),
                 "--perfetto", str(perfetto)]) == 0
    capsys.readouterr()
    assert main(["validate", "--vcd", str(vcd), "--perfetto", str(perfetto)]) == 0
    out = capsys.readouterr().out
    assert "vcd ok" in out and "perfetto ok" in out

    bad = tmp_path / "bad.vcd"
    bad.write_text("not a vcd\n")
    assert main(["validate", "--vcd", str(bad)]) == 1
    assert main(["validate"]) == 2


def test_vcd_artifact_is_deterministic(tmp_path):
    first = tmp_path / "a.vcd"
    second = tmp_path / "b.vcd"
    for path in (first, second):
        assert main(["fig16", "--epochs", "1", "--vcd", str(path)]) == 0
    assert first.read_text() == second.read_text()
