"""The JSON run manifest: schema, totals, and file output."""

import json

from repro.runner import ResultCache, build_manifest, run_suite, write_manifest
from repro.runner.manifest import MANIFEST_SCHEMA


def test_manifest_schema_and_totals(tmp_path):
    cache = ResultCache(tmp_path / "cache", digest="e" * 64)
    report = run_suite(["table2", "fig12"], cache=cache)
    manifest = build_manifest(report, ["table2", "fig12"])

    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["wall_time_s"] > 0
    assert manifest["cache"]["misses"] == 2
    assert manifest["cache"]["source_digest"] == "e" * 64
    assert manifest["requested"] == ["table2", "fig12"]
    assert set(manifest["experiments"]) == {"table2", "fig12"}

    for entry in manifest["experiments"].values():
        assert entry["cache"] == "miss"
        assert entry["claims_held"] <= entry["claims_total"]
        assert {"events_processed", "pulses_emitted"} <= set(entry["stats"])
    totals = manifest["totals"]
    assert totals["experiments"] == 2
    assert totals["failures"] == totals["claims_total"] - totals["claims_held"]
    assert totals["failures"] == 0


def test_manifest_records_cache_hits(tmp_path):
    cache = ResultCache(tmp_path / "cache", digest="e" * 64)
    run_suite(["table2"], cache=cache)
    warm = build_manifest(run_suite(["table2"], cache=cache))
    assert warm["experiments"]["table2"]["cache"] == "hit"
    assert warm["cache"]["hits"] == 1


def test_write_manifest_emits_valid_json(tmp_path):
    report = run_suite(["table2"])
    path = write_manifest(tmp_path / "nested" / "manifest.json",
                          build_manifest(report))
    loaded = json.loads(path.read_text())
    assert loaded["totals"]["experiments"] == 1
    assert path.read_text().endswith("\n")


def test_manifest_carries_metrics_schema3(tmp_path):
    """Schema 3: per-experiment metrics (+ fault counters), queue depth."""
    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.report import ExperimentResult
    from repro.pulsesim.faults import DropChannel
    from repro.pulsesim.netlist import Circuit
    from repro.pulsesim.simulator import Simulator

    def _faulty():
        circuit = Circuit("faulty")
        channel = circuit.add(DropChannel("d", drop_rate=1.0))
        sim = Simulator(circuit)
        sim.schedule_train(channel, "a", [0, 1_000])
        sim.run()
        return ExperimentResult("table2", "fault smoke", ["x"])

    original = EXPERIMENTS["table2"]
    EXPERIMENTS["table2"] = _faulty
    try:
        manifest = build_manifest(run_suite(["table2"]))
    finally:
        EXPERIMENTS["table2"] = original

    entry = manifest["experiments"]["table2"]
    assert entry["stats"]["max_queue_depth"] >= 1
    assert entry["metrics"]["counters"]["faults.drop.pulses_seen"] == 2
    assert entry["metrics"]["counters"]["faults.drop.pulses_dropped"] == 2
    json.dumps(manifest)  # metrics must stay JSON-serialisable


def test_cached_rerun_restores_metrics(tmp_path):
    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.report import ExperimentResult
    from repro.trace.metrics import current_registry

    def _metered():
        current_registry().counter("custom.count").inc(7)
        return ExperimentResult("table2", "metric smoke", ["x"])

    cache = ResultCache(tmp_path / "cache", digest="e" * 64)
    original = EXPERIMENTS["table2"]
    EXPERIMENTS["table2"] = _metered
    try:
        cold = build_manifest(run_suite(["table2"], cache=cache))
        warm = build_manifest(run_suite(["table2"], cache=cache))
    finally:
        EXPERIMENTS["table2"] = original
    assert cold["experiments"]["table2"]["metrics"]["counters"][
        "custom.count"] == 7
    assert warm["experiments"]["table2"]["cache"] == "hit"
    assert warm["experiments"]["table2"]["metrics"] == (
        cold["experiments"]["table2"]["metrics"]
    )
