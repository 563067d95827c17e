"""Golden-file tests for the VCD and Perfetto exporters."""

import io
import json

import pytest

from repro.cells.interconnect import Splitter
from repro.pulsesim import Circuit, Simulator
from repro.trace import (
    TraceSession,
    parse_vcd,
    trace_events,
    validate_trace,
    write_perfetto,
    write_vcd,
)
from repro.trace.perfetto import trace_document
from repro.trace.vcd import pulse_intervals


def _traced_session():
    circuit = Circuit("exporter")
    entry = circuit.add(Splitter("entry"))
    mid = circuit.add(Splitter("mid"))
    circuit.connect(entry, "q1", mid, "a", delay=1_000)
    session = TraceSession(circuit)
    sim = Simulator(circuit, kernel="sealed", trace=session)
    sim.schedule_train(entry, "a", [0, 10_000, 10_000, 25_000])
    sim.run()
    return session


def test_pulse_intervals_merge_overlaps():
    assert pulse_intervals([0, 500, 5_000], 2_000) == [(0, 2_500), (5_000, 7_000)]
    assert pulse_intervals([], 2_000) == []
    assert pulse_intervals([3, 3], 10) == [(3, 13)]


def test_vcd_structure_parses():
    session = _traced_session()
    buffer = io.StringIO()
    write_vcd(session, buffer)
    info = parse_vcd(buffer.getvalue())
    assert info["timescale"] == "1 fs"
    # 4 port wires + the queue_depth integer.
    assert sorted(info["vars"].values()) == [
        "entry.q1", "entry.q2", "mid.q1", "mid.q2", "queue_depth",
    ]
    assert info["change_count"] > 0
    assert info["times"] == sorted(info["times"])


def test_vcd_is_deterministic():
    first, second = io.StringIO(), io.StringIO()
    write_vcd(_traced_session(), first)
    write_vcd(_traced_session(), second)
    assert first.getvalue() == second.getvalue()


def test_parse_vcd_rejects_malformed_documents():
    with pytest.raises(ValueError, match="timescale"):
        parse_vcd("$enddefinitions $end\n")
    good = io.StringIO()
    write_vcd(_traced_session(), good)
    with pytest.raises(ValueError, match="undeclared"):
        parse_vcd(good.getvalue() + "\n1ZZ\n")


def test_parse_vcd_rejects_negative_timestamps():
    header = "$timescale 1 fs $end\n$var wire 1 ! x $end\n$enddefinitions $end\n"
    with pytest.raises(ValueError, match="negative timestamp"):
        parse_vcd(header + "#-2000\n1!\n")


def test_perfetto_round_trips_and_validates():
    session = _traced_session()
    buffer = io.StringIO()
    write_perfetto(session, buffer)
    document = json.loads(buffer.getvalue())  # must round-trip json
    info = validate_trace(document)
    assert info["tracks"] == ["entry.q1", "entry.q2", "mid.q1", "mid.q2"]
    assert info["counter_series"] == ["cohort", "queue_depth"]
    # 4 stimulus pulses through two splitters: 4 + 4 + 4 pulses... each
    # traced port records its own copies; just pin against the session.
    assert info["pulse_count"] == sum(tap.total for tap in session.ports)
    assert document["displayTimeUnit"] == "ns"


def test_perfetto_event_invariants():
    session = _traced_session()
    events = trace_events(session)
    pids = {event["pid"] for event in events}
    assert pids == {1}
    instants = [e for e in events if e["ph"] == "i"]
    assert all(e["s"] == "t" and e["tid"] >= 1 for e in instants)
    counters = [e for e in events if e["ph"] == "C"]
    assert {e["name"] for e in counters} == {"queue_depth", "cohort"}
    assert all(e["tid"] == 0 for e in counters)


def test_validate_trace_rejects_malformed():
    with pytest.raises(ValueError, match="traceEvents"):
        validate_trace({"events": []})
    with pytest.raises(ValueError, match="ph"):
        validate_trace({"traceEvents": [{"ph": "X"}]})
    with pytest.raises(ValueError, match="ts"):
        validate_trace({"traceEvents": [{"ph": "i"}]})


def test_file_destinations(tmp_path):
    session = _traced_session()
    vcd_path = tmp_path / "out.vcd"
    json_path = tmp_path / "out.json"
    write_vcd(session, str(vcd_path))
    write_perfetto(session, str(json_path))
    assert parse_vcd(vcd_path.read_text())["change_count"] > 0
    assert validate_trace(json.loads(json_path.read_text()))["event_count"] > 0
    # Deterministic documents: a second export is byte-identical.
    document = trace_document(session)
    assert json.loads(json_path.read_text()) == json.loads(
        json.dumps(document)
    )
