"""run_suite: in-process runs, cache integration, registry order."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.report import format_result
from repro.runner import ResultCache, run_suite


def test_unknown_id_raises_before_any_work():
    with pytest.raises(ConfigurationError, match="unknown experiment"):
        run_suite(["fig99"])


def test_outcomes_are_registry_ordered():
    report = run_suite(["fig12", "table1"])
    assert list(report.outcomes) == ["table1", "fig12"]


def test_simulation_stats_are_captured():
    report = run_suite(["fig02"])
    stats = report.outcomes["fig02"].stats
    assert stats.events_processed > 0
    assert stats.pulses_emitted > 0


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path / "cache", digest="f" * 64)
    cold = run_suite(["table2", "fig12"], cache=cache)
    assert cold.cache_misses == 2 and cold.cache_hits == 0
    warm = run_suite(["table2", "fig12"], cache=cache)
    assert warm.cache_hits == 2 and warm.cache_misses == 0
    for experiment_id in ("table2", "fig12"):
        assert format_result(warm.outcomes[experiment_id].result) == \
            format_result(cold.outcomes[experiment_id].result)
        assert warm.outcomes[experiment_id].cache_status == "hit"


def test_no_cache_reports_off():
    report = run_suite(["table2"])
    assert report.outcomes["table2"].cache_status == "off"
    assert report.cache_dir is None


def test_failures_counts_differing_claims():
    report = run_suite(["table2"])
    assert report.failures == 0


def test_duplicate_ids_collapse_to_one_outcome():
    report = run_suite(["table2", "table2"])
    assert list(report.outcomes) == ["table2"]
