"""The native sealed loop (``_sealed.c``): build, fallback and its edges.

The loop's behaviour is held to the Python loop's by the kernel
differential suite (both loops against the reference kernel) and by
``test_kernel_python_loop.py``; these tests pin what only the native loop
has: the build-on-first-use machinery, the int64 boundary, signal
delivery during a long run, and reference counting.
"""

import os
import random
import shutil
import signal
import subprocess
import sys
import sysconfig
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from repro.cells.interconnect import Jtl
from repro.core.dpu import DotProductUnit
from repro.encoding.epoch import EpochSpec
from repro.errors import SimulationError
from repro.pulsesim import Circuit, DropChannel, Simulator, kernel, native

SRC = Path(__file__).resolve().parents[2] / "src"

live = pytest.mark.skipif(
    kernel._native_loop() is None, reason="the native loop did not build here"
)


def _toolchain_present() -> bool:
    cc = sysconfig.get_config_var("CC")
    include = sysconfig.get_paths()["include"]
    return bool(
        cc and shutil.which(cc.split()[0])
        and include and Path(include, "Python.h").exists()
    )


def _dpu_rows(unit, count, seed=7):
    rng = random.Random(seed)
    n_max = unit.epoch.n_max
    return [
        (
            [rng.randint(0, n_max) for _ in range(unit.length)],
            [rng.randint(0, n_max) for _ in range(unit.length)],
        )
        for _ in range(count)
    ]


def _workload():
    """Counts, recordings and stats of a serve-config DPU and of a sealed
    circuit whose fault channel runs on the call opcode."""
    unit = DotProductUnit(EpochSpec(bits=5, slot_fs=40_000), 8, bipolar=True)
    counts = [unit.run_counts(a, b) for a, b in _dpu_rows(unit, 6)]
    lossy = Circuit("lossy")
    head = lossy.add(Jtl("head"))
    channel = lossy.add(DropChannel("loss", drop_rate=0.5, seed=1))
    tail = lossy.add(Jtl("tail"))
    lossy.connect(head, "q", channel, "a")
    lossy.connect(channel, "q", tail, "a", delay=700)
    probe = lossy.probe(tail, "q")
    sim = Simulator(lossy)
    sim.schedule_train(head, "a", range(0, 400_000, 10_000))
    stats = sim.run()
    return (counts, list(probe.times), stats.events_processed,
            stats.pulses_emitted, stats.end_time, stats.max_queue_depth)


def test_native_loop_is_live_where_a_toolchain_is():
    """Where ``CC`` resolves and ``Python.h`` exists the native loop must
    build, so a benchmark run cannot silently measure the fallback."""
    if not _toolchain_present():
        pytest.skip("no C compiler or Python headers on this host")
    assert kernel._native_loop() is not None
    circuit = Circuit("live")
    circuit.add(Jtl("j"))
    assert Simulator(circuit)._queue is not None


def test_failed_build_leaves_identical_results_on_the_python_loop(tmp_path):
    with mock.patch.object(
        native, "compile_command", return_value=["/nonexistent/cc"]
    ):
        assert native.try_load(tmp_path) is None
    assert list(tmp_path.iterdir()) == []  # no partial module left behind
    with mock.patch.object(kernel, "_native", None):
        circuit = Circuit("fallback")
        circuit.add(Jtl("j"))
        assert Simulator(circuit)._queue is None
        python_loop = _workload()
    assert _workload() == python_loop


@live
def test_two_processes_building_into_an_empty_cache_both_load(tmp_path):
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.pulsesim import native\n"
        "module = native.import_path(native.build(Path(sys.argv[1])))\n"
        "print(module.Queue.__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
        assert out.decode().strip() == "Queue"
    assert [path.name for path in tmp_path.iterdir()] == [
        native.module_path(tmp_path).name
    ]


@live
def test_a_new_build_deletes_the_build_it_supersedes(tmp_path):
    """An edited source builds beside the old module, which then goes; a
    concurrent build's partial and another interpreter's module stay."""
    cache = tmp_path / "cache"
    cache.mkdir()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    foreign = cache / "_sealed.0123456789abcdef.cpython-0-foreign.so"
    partial = cache / f"._sealed.0123456789abcdef{suffix}.x1y2.tmp"
    assert not foreign.name.endswith(suffix)
    foreign.write_bytes(b"")
    partial.write_bytes(b"")
    sources = []
    for version in (1, 2):
        source = tmp_path / f"v{version}.c"
        source.write_text(f"int sealed_version = {version};\n")
        sources.append(source)
    old = native.build(cache, sources[0])
    assert old.exists()
    new = native.build(cache, sources[1])
    assert new != old
    assert sorted(path.name for path in cache.iterdir()) == sorted(
        [new.name, foreign.name, partial.name]
    )


@live
def test_times_beyond_int64_raise_simulation_error():
    circuit = Circuit("far")
    a = circuit.add(Jtl("a"))
    b = circuit.add(Jtl("b"))
    circuit.connect(a, "q", b, "a", delay=2**70)
    sim = Simulator(circuit)
    sim.schedule_input(a, "a", 0)
    with pytest.raises(SimulationError, match="int64"):
        sim.run()
    with pytest.raises(SimulationError, match="int64"):
        Simulator(circuit).schedule_train(a, "a", [2**63])
    # The Python loop carries big ints: the one documented divergence.
    with mock.patch.object(kernel, "_native", None):
        sim = Simulator(circuit)
        sim.schedule_input(a, "a", 0)
        assert sim.run().end_time == 2**70 + a.delay


@live
def test_a_signal_handler_stops_an_oscillating_run():
    """Signals are checked every 2**16 events, so Ctrl-C or a SIGTERM
    handler still stops a long run, with the counters written back."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("no interval timers on this platform")

    class Stop(Exception):
        pass

    def stop(signum, frame):
        raise Stop

    circuit = Circuit("ring")
    a = circuit.add(Jtl("a"))
    b = circuit.add(Jtl("b"))
    circuit.connect(a, "q", b, "a")
    circuit.connect(b, "q", a, "a")
    sim = Simulator(circuit, max_events=10**15)
    sim.schedule_input(a, "a", 0)
    previous = signal.signal(signal.SIGALRM, stop)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(Stop):
            sim.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 0.5
    assert sim.stats.events_processed > 0
    assert sim.stats.pulses_emitted == sim.stats.events_processed
    assert sim.pending_events == 1  # the ring's one pulse, still in flight


@live
def test_dpu_rows_leave_memory_and_program_refcounts_flat():
    """Serve-config DPU rows allocate nothing that outlives them, and every
    program list ends with the reference count it started with: the heap
    releases each queued reference it took."""
    unit = DotProductUnit(EpochSpec(bits=5, slot_fs=40_000), 8, bipolar=True)
    rows = _dpu_rows(unit, 16)
    programs = list(unit.circuit._ops.values())
    tracemalloc.start()
    try:
        for a_slots, b_counts in rows * 4:  # warm every path and cache
            unit.run_counts(a_slots, b_counts)
        refs = [sys.getrefcount(op) for op in programs]
        before = tracemalloc.get_traced_memory()[0]
        for index in range(1_000):
            unit.run_counts(*rows[index % len(rows)])
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [sys.getrefcount(op) for op in programs] == refs
    assert grown < 16_384, grown
