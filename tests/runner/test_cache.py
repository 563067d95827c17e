"""The content-addressed result cache: hits, misses, invalidation."""

from repro.experiments.registry import run_experiment
from repro.experiments.report import format_result
from repro.pulsesim.simulator import SimulationStats
from repro.runner.cache import ResultCache, source_digest


def _fixed_cache(tmp_path, digest="d" * 64):
    return ResultCache(tmp_path / "cache", digest=digest)


def test_miss_on_empty_cache(tmp_path):
    cache = _fixed_cache(tmp_path)
    assert cache.load("table2") is None


def test_store_then_load_round_trips(tmp_path):
    cache = _fixed_cache(tmp_path)
    result = run_experiment("table2")
    stats = SimulationStats(events_processed=5, pulses_emitted=3, end_time=9)
    cache.store("table2", result, stats, 0.25)
    entry = cache.load("table2")
    assert entry is not None
    assert format_result(entry.result) == format_result(result)
    assert entry.stats == stats
    assert entry.compute_time_s == 0.25


def test_key_depends_on_source_digest(tmp_path):
    before = ResultCache(tmp_path, digest="a" * 64)
    after = ResultCache(tmp_path, digest="b" * 64)
    assert before.key("fig18") != after.key("fig18")
    assert before.path("fig18") != after.path("fig18")


def test_source_edit_invalidates(tmp_path):
    """A cached entry is unreachable once the source tree changes."""
    cache = ResultCache(tmp_path, digest="a" * 64)
    cache.store("table2", run_experiment("table2"), SimulationStats(), 0.0)
    edited = ResultCache(tmp_path, digest="b" * 64)
    assert cache.load("table2") is not None
    assert edited.load("table2") is None


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = _fixed_cache(tmp_path)
    cache.store("table2", run_experiment("table2"), SimulationStats(), 0.0)
    cache.path("table2").write_text("{not json")
    assert cache.load("table2") is None


def test_deeply_nested_entry_reads_as_miss(tmp_path):
    cache = _fixed_cache(tmp_path)
    cache.store("table2", run_experiment("table2"), SimulationStats(), 0.0)
    cache.path("table2").write_text("[" * 100_000 + "]" * 100_000)
    assert cache.load("table2") is None


def test_source_digest_tracks_file_content(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text("x = 1\n")
    first = source_digest(tree)
    assert first == source_digest(tree)  # stable
    (tree / "a.py").write_text("x = 2\n")
    assert source_digest(tree) != first


def test_source_digest_tracks_new_files(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text("x = 1\n")
    first = source_digest(tree)
    (tree / "b.py").write_text("")
    assert source_digest(tree) != first


def test_source_digest_tracks_c_sources(tmp_path):
    """An edit to the native loop's C source invalidates cached results."""
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text("x = 1\n")
    (tree / "_loop.c").write_text("int x = 1;\n")
    first = source_digest(tree)
    (tree / "_loop.c").write_text("int x = 2;\n")
    assert source_digest(tree) != first


def test_default_digest_covers_the_repro_package():
    digest = source_digest()
    assert len(digest) == 64
    assert digest == source_digest()  # deterministic within a run
