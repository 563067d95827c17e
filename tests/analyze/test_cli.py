"""usfq-analyze CLI: output shapes, exit codes, fail-on policy."""

import json
from pathlib import Path

import pytest

from repro.analyze.blocks import SHIPPED_BLOCKS
from repro.analyze.cli import main

_COMMITTED = Path(__file__).resolve().parents[2] / "results" / "analyze"


def test_list_blocks(capsys):
    assert main(["--list-blocks"]) == 0
    out = capsys.readouterr().out
    assert "dpu" in out and "cgra-fabric" in out


def test_text_report_single_block(capsys):
    assert main(["dpu"]) == 0
    out = capsys.readouterr().out
    assert "== dpu:dpu ==" in out
    assert "epoch_slack_fs" in out
    assert "analyzed 1 block(s)" in out


def test_json_all_blocks(capsys):
    assert main(["--all-blocks", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert len(document["targets"]) == 10
    for target in document["targets"]:
        assert "bounds" not in target
        assert target["stats"]["queue_depth_bound"] is not None


def test_json_bounds_table(capsys):
    assert main(["pnm", "--json", "--bounds"]) == 0
    document = json.loads(capsys.readouterr().out)
    rows = document["targets"][0]["bounds"]
    assert rows and {"element", "port", "dir", "bounds"} <= set(rows[0])


@pytest.mark.parametrize("name", sorted(SHIPPED_BLOCKS))
def test_committed_report_matches_the_cli(name, capsys):
    """``results/analyze/<block>.json`` is ``usfq-analyze <block> --json``,
    byte for byte."""
    assert main([name, "--json"]) == 0
    assert capsys.readouterr().out == (_COMMITTED / f"{name}.json").read_text()


def test_output_file(tmp_path, capsys):
    path = tmp_path / "nested" / "dpu.json"
    assert main(["dpu", "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    document = json.loads(path.read_text())
    assert document["targets"][0]["target"] == "dpu:dpu"


def test_fail_on_severity_policy():
    # balancer carries merger-collision warnings: clean at the default
    # error threshold, failing once warnings gate.
    assert main(["balancer"]) == 0
    assert main(["balancer", "--fail-on", "warning"]) == 1
    assert main(["balancer", "--fail-on", "never"]) == 0


def test_unknown_block_and_empty_invocation_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-block"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
