"""The exit contract every ``usfq-*`` command shares (docs/running.md).

Bad input exits 2: as argparse's ``SystemExit(2)`` for a usage error, or
as a returned 2 with one ``usfq-<name>: error: ...`` line on stderr for
a refused value, before anything reaches stdout.  Never a traceback,
never a vacuous success.  Output files land in directories created on
demand; an unwritable path is bad input too.
"""

import importlib
from pathlib import Path

import pytest

FIR3 = str(Path(__file__).resolve().parents[1] / "examples" / "specs" / "fir3.json")

#: Refused JSON documents: ``{deep}``, ``{list}`` and ``{string}`` are
#: directories holding the named one as ``entry.json``.
DOCUMENTS = {
    "deep": "[" * 100_000 + "]" * 100_000,  # json.loads: RecursionError
    "list": "[]",
    "string": '"x"',
}

#: Placeholders: ``{missing}`` is a directory that does not exist yet,
#: ``{blocked}`` sits under a regular file.
BAD_INPUT = [
    ("lint", ["no-such-block"]),
    ("analyze", []),
    ("analyze", ["dpu", "--output", "{blocked}/dpu.json"]),
    ("shard", ["plan", "pnm", "--serialization-fs", "-5", "--hop-latency-fs", "-1"]),
    ("shard", ["plan", "pnm", "--fifo-depth", "0"]),
    ("shard", ["partition", "pnm", "--fifo-depth", "0"]),
    ("shard", ["partition", "pnm", "--serialization-fs", "-5",
               "--hop-latency-fs", "-1"]),
    ("shard", ["run", "pnm", "--fifo-depth", "0"]),
    ("shard", ["run", "pnm", "--serialization-fs", "-5", "--hop-latency-fs", "-1"]),
    ("shard", ["partition", "pnm", "--output", "{blocked}/plan.json"]),
    ("shard", ["run", "pnm", "--pulses", "0"]),
    ("shard", ["run", "pnm", "--pulses", "-1"]),
    ("synth", ["compile", FIR3, "--out", "{blocked}/fir3.json"]),
    ("synth", ["check", "{deep}/entry.json"]),
    ("verify", ["--max-examples", "-1"]),
    ("verify", ["--max-examples", "0"]),
    ("verify", ["--replay", "{missing}/corpus"]),
    ("verify", ["--replay", "{deep}"]),
    ("verify", ["--replay", "{list}"]),
    ("verify", ["--replay", "{string}"]),
    ("trace", ["dpu", "--bits", "0"]),
    ("trace", ["dpu", "--epochs", "0"]),
    ("trace", ["fig16", "--epochs", "1", "--metrics", "{blocked}/m.json"]),
    ("trace", ["fig99"]),
    ("trace", ["dpu", "--pulse-width", "0"]),
    ("trace", ["dpu", "--pulse-width", "-5000"]),
    ("serve", ["--max-batch", "0"]),
    ("serve", ["--workers", "2", "--max-batch", "0"]),
    ("serve", ["--workers", "-1"]),
    ("serve", ["--cache-entries", "-1"]),
    ("serve", ["--port", "70000"]),
    ("serve", ["--drain-grace-s", "-5"]),
    ("experiments", ["fig99"]),
    ("experiments", ["table2", "--jobs", "2"]),
    ("experiments", ["table2", "--no-cache", "--output", "{blocked}/reports"]),
    ("experiments", ["table2", "--no-cache", "--manifest", "{blocked}/run.json"]),
]

WRITES = [
    ("analyze", ["dpu", "--output", "{missing}/dpu.json"]),
    ("shard", ["partition", "pnm", "--output", "{missing}/plan.json"]),
    ("synth", ["compile", FIR3, "--out", "{missing}/fir3.json"]),
    ("trace", ["fig16", "--epochs", "1", "--vcd", "{missing}/t.vcd",
               "--perfetto", "{missing}/t.json", "--metrics", "{missing}/m.json"]),
    ("experiments", ["table2", "--no-cache", "--output", "{missing}/reports",
                     "--manifest", "{missing}/run/manifest.json"]),
]


def _ids(cases):
    return [f"{name}:{' '.join(argv).replace(FIR3, 'fir3.json')}"
            for name, argv in cases]


def _invoke(name, argv, tmp_path):
    (tmp_path / "file").write_text("")
    paths = {"{missing}": str(tmp_path / "a" / "b"),
             "{blocked}": str(tmp_path / "file")}
    for doc, text in DOCUMENTS.items():
        (tmp_path / doc).mkdir()
        (tmp_path / doc / "entry.json").write_text(text)
        paths[f"{{{doc}}}"] = str(tmp_path / doc)
    for token, path in paths.items():
        argv = [arg.replace(token, path) for arg in argv]
    main = importlib.import_module(f"repro.{name}.cli").main
    try:
        return main(argv), argv
    except SystemExit as exit:
        return exit.code, argv


async def _refuse_to_serve(config, ready=None):
    raise AssertionError(f"usfq-serve started with a bad config: {config}")


@pytest.fixture(autouse=True)
def _sandbox(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # A config that slipped through would serve forever; fail instead.
    monkeypatch.setattr("repro.serve.cli.serve_forever", _refuse_to_serve)


@pytest.mark.parametrize("name, argv", BAD_INPUT, ids=_ids(BAD_INPUT))
def test_bad_input_exits_2_with_one_error_line(name, argv, tmp_path, capsys):
    status, _argv = _invoke(name, argv, tmp_path)
    out, err = capsys.readouterr()
    assert status == 2
    assert out == ""
    assert "Traceback" not in err
    prefix = f"usfq-{name}: error: "
    lines = err.splitlines()
    assert lines[-1].startswith(prefix)
    assert sum(line.startswith(prefix) for line in lines) == 1


@pytest.mark.parametrize("name, argv", WRITES, ids=_ids(WRITES))
def test_outputs_create_missing_directories(name, argv, tmp_path, capsys):
    status, argv = _invoke(name, argv, tmp_path)
    assert status == 0, capsys.readouterr().err
    written = [arg for arg in argv if arg.startswith(str(tmp_path / "a"))]
    assert written and all(Path(path).exists() for path in written)


def test_trace_validate_reports_deep_json_as_invalid(tmp_path, capsys):
    status, _argv = _invoke(
        "trace", ["validate", "--perfetto", "{deep}/entry.json"], tmp_path
    )
    out, err = capsys.readouterr()
    assert status == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("perfetto invalid: ")
