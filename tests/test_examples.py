"""Smoke tests: the fast example scripts run end to end.

The heavier demos (DPU neural network, FIR audio recovery) are exercised
indirectly through their underlying APIs; these four finish in seconds
and guard the documented entry points against drift.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name: str, argv=None):
    saved_argv = sys.argv
    sys.argv = [str(EXAMPLES / name)] + list(argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved_argv


def test_quickstart(capsys):
    _run("quickstart.py")
    out = capsys.readouterr().out
    assert "unipolar multiply" in out
    assert "46 JJs" in out


def test_racelogic_edit_distance(capsys):
    _run("racelogic_edit_distance.py")
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert "[ok]" in out


def test_design_space_explorer_query_mode(capsys):
    _run("design_space_explorer.py", argv=["32", "6"])
    out = capsys.readouterr().out
    assert "verdict" in out
    assert "U-SFQ" in out


def test_pulse_sim_tutorial(capsys):
    _run("pulse_sim_tutorial.py")
    out = capsys.readouterr().out
    assert "step 5 - export" in out
    assert "PulseGater" in out


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "fir_audio_recovery.py",
        "dpu_neural_network.py",
        "cgra_convolution.py",
        "racelogic_edit_distance.py",
        "design_space_explorer.py",
        "pulse_sim_tutorial.py",
    ],
)
def test_every_example_has_a_main_guard(name):
    source = (EXAMPLES / name).read_text()
    assert '__name__ == "__main__"' in source
    assert source.lstrip().startswith(("#!/usr/bin/env python3", '"""'))