"""Serving-layer benchmarks: the coalescing-throughput floor.

At high concurrency a micro-batching server (``max_batch`` lanes per
group) must not lose throughput to the *same server* with coalescing
disabled (``max_batch=1``).  Both run every row of a group as one
sealed ``run_counts`` call (``DotProductUnit.run_counts_batch``), so
coalescing saves a worker round trip per request, not kernel work.

Each benchmark boots a real HTTP server in-process with **one** worker
process (both configs get the same single executor, so the ratio
measures coalescing, not parallelism; an inline tier would let the
simulation hold the GIL and starve request arrival, shrinking batches),
fires one closed-loop volley of distinct DPU requests at concurrency
``_CONCURRENCY``, and records requests/run in ``extra_info``.
``check_regression.py`` derives requests/s for the
``*_serve_coalesced`` / ``*_serve_solo`` pair and enforces
``--min-serve-speedup`` (CI floor 0.8x: on a 2-CPU host 11 runs
measured 1.06-2.0x, median 1.5x, and 6 more 1.22-1.61x, median 1.30x,
so the floor sits below the noisiest run; ``results/serve/`` carries
the committed figures).

The in-test assertion holds the same line: coalesced must reach
``_IN_TEST_FLOOR`` times solo's throughput.  A third (ungated, tracked-by-baseline) benchmark
measures the warm-cache path: the full request set again, every request
a content-addressed hit.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import ServeConfig, start_server_thread
from loadgen import build_requests

_CONCURRENCY = 64
_REQUESTS = 64
_BITS = 5
_LENGTH = 8
_BIPOLAR = True
_IN_TEST_FLOOR = 0.8  # below the noisiest of 11 measured runs (1.06x)

_RESULTS = {}


def _payloads():
    return build_requests(
        _REQUESTS, bits=_BITS, length=_LENGTH, bipolar=_BIPOLAR,
        seed=20220711,
    )


def _volley(server, payloads):
    """Every payload once, closed-loop, _CONCURRENCY client threads."""
    with ThreadPoolExecutor(min(_CONCURRENCY, len(payloads))) as pool:
        statuses = list(
            pool.map(
                lambda payload: server.request(
                    "POST", "/v1/compute", payload, timeout=300.0
                )[0],
                payloads,
            )
        )
    assert statuses == [200] * len(payloads)


def _bench_config(max_batch):
    # Coalescing needs no window: requests that arrive while the one
    # worker is busy pile into the group that takes its slot next.
    return ServeConfig(
        port=0,
        max_batch=max_batch,
        workers=1,
        cache_entries=0,  # every request must execute
        max_pending=4 * _CONCURRENCY,
    )


def _run_server_benchmark(benchmark, max_batch):
    payloads = _payloads()
    with start_server_thread(_bench_config(max_batch)) as server:
        # Warm-up volley: compile the circuit outside the timed region
        # (the serving claim is about steady state, not cold boot).
        _volley(server, payloads[: max(2, _CONCURRENCY // 8)])
        benchmark(_volley, server, payloads)
        snapshot = server.service.metrics.to_dict()
    benchmark.extra_info["requests"] = _REQUESTS
    benchmark.extra_info["concurrency"] = _CONCURRENCY
    return snapshot


def test_dpu_bipolar_serve_coalesced(benchmark):
    """64 concurrent requests onto a max_batch=64 micro-batching server."""
    snapshot = _run_server_benchmark(benchmark, max_batch=_CONCURRENCY)
    # Coalescing really happened: fewer dispatches than requests.
    lanes = snapshot["histograms"]["serve_batch_lanes"]
    assert lanes["max"] > 1
    _RESULTS["coalesced"] = benchmark.stats.stats.median


def test_dpu_bipolar_serve_solo(benchmark):
    """The same volley onto the same server shape with max_batch=1."""
    snapshot = _run_server_benchmark(benchmark, max_batch=1)
    lanes = snapshot["histograms"]["serve_batch_lanes"]
    assert lanes["max"] == 1  # nothing coalesced
    _RESULTS["solo"] = benchmark.stats.stats.median


def test_dpu_bipolar_serve_warm_cache(benchmark):
    """The full request set as pure cache hits (tracked, not paired)."""
    payloads = _payloads()
    config = _bench_config(max_batch=_CONCURRENCY)
    config.cache_entries = 4096
    with start_server_thread(config) as server:
        _volley(server, payloads)  # populate the cache
        benchmark(_volley, server, payloads)
        hits = server.service.metrics.to_dict()["counters"][
            "serve_cache_hits_total"
        ]
    assert hits >= len(payloads)
    benchmark.extra_info["requests"] = _REQUESTS
    benchmark.extra_info["concurrency"] = _CONCURRENCY


def test_serve_coalescing_floor():
    """The headline ratio, asserted within this run (host speed cancels)."""
    if "coalesced" not in _RESULTS or "solo" not in _RESULTS:
        pytest.skip("benchmark medians unavailable (ran standalone?)")
    ratio = _RESULTS["solo"] / _RESULTS["coalesced"]
    assert ratio >= _IN_TEST_FLOOR, (
        f"coalescing server only {ratio:.1f}x the max_batch=1 server "
        f"(floor {_IN_TEST_FLOOR}x)"
    )
