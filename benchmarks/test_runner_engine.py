"""The experiment runner itself: cold compute vs warm cache-hit cost."""

from repro.runner import ResultCache, run_suite

# Cheap, representative slice of the registry (two model-only figures,
# one simulator-backed experiment, one table).
SUITE = ["table2", "fig02", "fig14", "fig18"]


def test_runner_cold_suite(benchmark):
    report = benchmark.pedantic(
        lambda: run_suite(SUITE), rounds=1, iterations=1
    )
    assert report.failures == 0
    assert list(report.outcomes) == ["table2", "fig02", "fig14", "fig18"]


def test_runner_warm_cache_suite(benchmark, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold = run_suite(SUITE, cache=cache)
    assert cold.cache_misses == len(SUITE)

    report = benchmark.pedantic(
        lambda: run_suite(SUITE, cache=cache), rounds=3, iterations=1
    )
    assert report.failures == 0
    assert report.cache_hits == len(SUITE)
    # The whole point of the cache: a warm run must be far cheaper than
    # the cold one it replays.
    assert report.wall_time_s < cold.wall_time_s
