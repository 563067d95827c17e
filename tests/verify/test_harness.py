"""End-to-end campaigns: clean sweep, injected defect, CLI, corpus replay.

The injected-defect tests are the harness's own conformance proof: a
deliberate bug (a monkeypatched cell delay) must be *detected* by the
oracle matrix, *shrunk* to a minimal netlist, and *persisted* as a
committed-format corpus entry that reproduces the failure on replay.
"""

import contextlib
import json

import pytest

from repro.cells import Jtl
from repro.errors import VerificationError
from repro.verify.cli import main
from repro.verify.corpus import FORMAT, load_entry
from repro.verify.harness import (
    VerifyConfig,
    replay_corpus,
    run_verify,
)
from repro.verify.oracles import ORACLES
from tests.verify.helpers import inline_defect


@contextlib.contextmanager
def _late_jtl():
    """The acceptance defect: JTL reference semantics drift one
    femtosecond from the sealed inline opcode."""

    def late(self, sim, port, time):
        self.emit(sim, "q", time + self.delay + 1)

    with inline_defect(Jtl, late):
        yield


def test_smoke_campaign_is_clean():
    report = run_verify(VerifyConfig(profile="smoke", seed=0))
    assert report.ok
    assert report.examples == 25
    assert report.oracle_runs == 25 * len(ORACLES)
    assert report.wall_s > 0
    payload = report.to_json()
    assert payload["ok"] and payload["discrepancies"] == []


def test_max_examples_override_and_oracle_subset():
    report = run_verify(VerifyConfig(profile="ci", max_examples=5,
                                     oracles=["lint-clean", "time-shift"]))
    assert report.examples == 5
    assert report.oracle_runs == 10


def test_unknown_oracle_selection_raises():
    with pytest.raises(VerificationError, match="unknown oracle"):
        run_verify(VerifyConfig(oracles=["vibes"]))


def test_progress_callback_sees_every_example():
    seen = []
    run_verify(VerifyConfig(profile="smoke", max_examples=4),
               progress=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


@pytest.fixture
def delayed_jtl():
    """Fixture form of :func:`_late_jtl` for tests that keep the defect
    live for their whole body."""
    with _late_jtl():
        yield


def test_injected_defect_is_detected_shrunk_and_persisted(
        delayed_jtl, tmp_path):
    corpus_dir = tmp_path / "corpus"
    report = run_verify(VerifyConfig(profile="ci", max_examples=40,
                                     corpus_dir=str(corpus_dir)))
    assert not report.ok
    kernel_failures = [d for d in report.discrepancies
                       if d.oracle == "kernel-differential"]
    assert kernel_failures

    # Shrinking reaches the minimal reproduction: a single JTL fed by
    # a single pulse at t=0 over a zero-delay wire.
    minimal = min(kernel_failures, key=lambda d: len(d.shrunk.cells))
    assert len(minimal.shrunk.cells) == 1
    assert minimal.shrunk.cells[0].kind == "Jtl"
    assert minimal.shrunk.cells[0].inputs[0].delay == 0
    assert minimal.shrunk.stimulus == (0,)

    # Persisted in the committed corpus format, and the entry replays
    # to a failure while the defect is live.
    entry = load_entry(minimal.corpus_path)
    assert entry["format"] == FORMAT
    assert entry["oracle"] == "kernel-differential"
    assert entry["seed"] == 0 and entry["profile"] == "ci"
    outcomes = replay_corpus(str(corpus_dir))
    assert outcomes and not all(outcome["ok"] for outcome in outcomes)


def test_replayed_corpus_passes_once_the_defect_is_fixed(tmp_path):
    corpus_dir = tmp_path / "corpus"
    with _late_jtl():
        run_verify(VerifyConfig(profile="ci", max_examples=15,
                                corpus_dir=str(corpus_dir)))
    outcomes = replay_corpus(str(corpus_dir))
    assert outcomes  # the defect produced entries ...
    assert all(outcome["ok"] for outcome in outcomes)  # ... now fixed


def test_exceptions_inside_oracles_count_as_discrepancies(monkeypatch):
    import repro.verify.harness as harness

    def explode(spec):
        raise RuntimeError("boom")

    monkeypatch.setitem(harness.ORACLES, "lint-clean", explode)
    report = run_verify(VerifyConfig(profile="smoke", max_examples=1,
                                     oracles=["lint-clean"], shrink=False))
    assert not report.ok
    assert "RuntimeError: boom" in report.discrepancies[0].detail


# -- CLI -----------------------------------------------------------------------
def test_cli_clean_campaign(capsys):
    code = main(["--profile", "smoke", "--max-examples", "5", "--quiet",
                 "--corpus-dir", "/nonexistent/never-created"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: 5 examples")


def test_cli_json_report(capsys):
    code = main(["--profile", "smoke", "--max-examples", "3", "--quiet",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["examples"] == 3


def test_cli_list_oracles(capsys):
    assert main(["--list-oracles"]) == 0
    out = capsys.readouterr().out
    for name in ORACLES:
        assert name in out
    assert main(["--list-oracles", "--json"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == set(ORACLES)


def test_cli_unknown_oracle_is_a_usage_error(capsys):
    assert main(["--oracle", "vibes"]) == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_cli_detects_defect_and_saves_corpus(delayed_jtl, tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    code = main(["--profile", "ci", "--max-examples", "15", "--quiet",
                 "--oracle", "kernel-differential",
                 "--corpus-dir", str(corpus_dir)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "kernel-differential" in out
    assert list(corpus_dir.glob("kernel-differential-*.json"))


def test_cli_replay_modes(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    with _late_jtl():
        assert main(["--profile", "ci", "--max-examples", "15", "--quiet",
                     "--oracle", "kernel-differential",
                     "--corpus-dir", str(corpus_dir)]) == 1
        capsys.readouterr()
        # Defect still live: replay reproduces it.
        assert main(["--replay", str(corpus_dir)]) == 1
        assert "FAIL" in capsys.readouterr().out
    # Defect fixed: the corpus becomes a passing regression suite.
    assert main(["--replay", str(corpus_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload and all(outcome["ok"] for outcome in payload)
    # An existing empty corpus replays clean.
    (tmp_path / "empty").mkdir()
    assert main(["--replay", str(tmp_path / "empty")]) == 0


def test_committed_corpus_replays_clean():
    """Every counterexample ever committed must stay fixed."""
    from pathlib import Path

    corpus = Path(__file__).parent / "corpus"
    outcomes = replay_corpus(str(corpus))
    failing = [outcome for outcome in outcomes if not outcome["ok"]]
    assert not failing, failing
