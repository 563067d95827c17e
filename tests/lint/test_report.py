"""Report / Diagnostic / Severity plumbing."""

import json

import pytest

from repro.cli import gate_status
from repro.lint.report import Diagnostic, Report, Severity


def _diag(rule="implicit-fanout", severity=Severity.ERROR, element="x", port="q"):
    return Diagnostic(
        rule=rule,
        severity=severity,
        message="msg",
        element=element,
        port=port,
    )


def test_severity_ordering_and_str():
    assert Severity.INFO < Severity.WARNING < Severity.ERROR
    assert str(Severity.WARNING) == "warning"


def test_severity_parse_round_trip():
    for level in Severity:
        assert Severity.parse(str(level)) is level
    assert Severity.parse("ERROR") is Severity.ERROR


def test_severity_parse_rejects_unknown():
    with pytest.raises(ValueError):
        Severity.parse("fatal")


def test_diagnostic_location_and_render():
    diag = _diag(element="mul.bff0", port="t")
    assert diag.location == "mul.bff0.t"
    rendered = diag.render()
    assert "error" in rendered
    assert "implicit-fanout" in rendered
    assert "mul.bff0.t" in rendered


def test_report_buckets_and_worst():
    report = Report(
        target="t",
        diagnostics=[
            _diag(severity=Severity.INFO),
            _diag(severity=Severity.WARNING),
            _diag(severity=Severity.ERROR),
        ],
    )
    assert len(report.errors) == 1
    assert len(report.warnings) == 1
    assert len(report.infos) == 1
    assert report.worst() is Severity.ERROR
    assert not report.ok


def test_report_ok_with_only_notes():
    report = Report(target="t", diagnostics=[_diag(severity=Severity.INFO)])
    assert report.ok
    assert report.worst() is Severity.INFO


def test_fails_at_thresholds():
    report = Report(target="t", diagnostics=[_diag(severity=Severity.WARNING)])
    severities = [d.severity for d in report.diagnostics]
    assert gate_status("warning", severities) == 1
    assert gate_status("info", severities) == 1
    assert gate_status("error", severities) == 0
    assert gate_status("never", [Severity.ERROR]) == 0


def test_empty_report_is_ok_and_never_fails():
    report = Report(target="t", diagnostics=[])
    assert report.ok
    assert report.worst() is None
    assert gate_status("info", [d.severity for d in report.diagnostics]) == 0


def test_format_text_hides_infos_when_terse():
    report = Report(
        target="t",
        diagnostics=[
            _diag(severity=Severity.ERROR),
            _diag(rule="jj-budget", severity=Severity.INFO),
        ],
    )
    assert "jj-budget" not in report.format_text(verbose=False)
    assert "jj-budget" in report.format_text(verbose=True)


def test_format_text_accounts_for_suppressions():
    report = Report(
        target="t",
        suppressed=[_diag(rule="merger-collision", severity=Severity.WARNING)],
    )
    text = report.format_text()
    assert "suppressed" in text
    assert "merger-collision" in text


def test_to_json_round_trips():
    report = Report(
        target="t",
        diagnostics=[_diag()],
        suppressed=[_diag(rule="merger-collision", severity=Severity.WARNING)],
    )
    payload = json.loads(report.to_json())
    assert payload["target"] == "t"
    assert payload["ok"] is False
    assert payload["errors"] == 1
    assert payload["suppressed"] == 1
    assert payload["diagnostics"][0]["rule"] == "implicit-fanout"
    assert payload["diagnostics"][0]["severity"] == "error"
