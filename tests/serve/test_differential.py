"""The serving differential: coalesced == solo == scalar, byte for byte.

Acceptance property from the issue: a coalesced batch of N distinct
requests must produce responses **byte-identical** to N sequential
single-request runs.  Three independent witnesses:

* a coalescing server under concurrent load, whose group reaches
  ``BATCH_CROSSOVER_LANES`` lanes and so runs on the batch kernel,
* a non-coalescing server (max_batch=1) taking the same requests
  serially, each a one-row group on the sealed kernel,
* direct scalar ``DotProductUnit.run_counts`` ground truth.
"""

import random
from concurrent.futures import ThreadPoolExecutor

from repro.core.dpu import BATCH_CROSSOVER_LANES, DotProductUnit
from repro.encoding.epoch import EpochSpec
from repro.serve import ServeConfig, start_server_thread

_BITS, _LENGTH = 3, 2
_CONFIG = {"bits": _BITS, "slot_fs": 40_000, "length": _LENGTH}


def _requests(count, seed=20220711):
    rng = random.Random(seed)
    n_max = 1 << _BITS
    return [
        {
            "op": "dpu.dot",
            "config": dict(_CONFIG),
            "a_slots": [rng.randrange(n_max + 1) for _ in range(_LENGTH)],
            "b_counts": [rng.randrange(n_max + 1) for _ in range(_LENGTH)],
        }
        for _ in range(count)
    ]


def test_coalesced_batch_is_byte_identical_to_sequential_singles():
    requests = _requests(BATCH_CROSSOVER_LANES)

    # Witness 1: concurrent clients against a coalescing server.  The
    # cache is disabled so every request truly executes; the wide window
    # is only a backstop, the size flush fires once every request is in.
    coalescing = ServeConfig(
        port=0,
        max_batch=len(requests),
        max_wait_us=5_000_000,
        workers=0,
        cache_entries=0,
    )
    with start_server_thread(coalescing) as server:
        with ThreadPoolExecutor(len(requests)) as pool:
            batched_bodies = list(
                pool.map(
                    lambda payload: server.request(
                        "POST", "/v1/compute", payload
                    )[2],
                    requests,
                )
            )
        snapshot = server.service.metrics.to_dict()
    # All requests coalesced into one group large enough for the batch
    # kernel.
    assert snapshot["counters"]["serve_batches_total"] == 1
    assert snapshot["histograms"]["serve_batch_lanes"]["max"] == len(requests)

    # Witness 2: the same requests, one at a time, on a max_batch=1 server.
    solo = ServeConfig(
        port=0, max_batch=1, max_wait_us=0, workers=0, cache_entries=0
    )
    with start_server_thread(solo) as server:
        solo_bodies = [
            server.request("POST", "/v1/compute", payload)[2]
            for payload in requests
        ]

    assert batched_bodies == solo_bodies  # byte-identical, per request

    # Witness 3: scalar ground truth straight from the structural DPU.
    unit = DotProductUnit(EpochSpec(bits=_BITS, slot_fs=40_000), _LENGTH)
    for payload, body in zip(requests, solo_bodies):
        expected = unit.run_counts(payload["a_slots"], payload["b_counts"])
        assert (
            body
            == b'{"ok":true,"op":"dpu.dot","result":{"count":%d}}' % expected
        )


def test_cached_response_is_the_same_byte_string_as_the_cold_one():
    request = _requests(1)[0]
    config = ServeConfig(port=0, max_batch=4, max_wait_us=1_000, workers=0)
    with start_server_thread(config) as server:
        _, cold_headers, cold_body = server.request(
            "POST", "/v1/compute", request
        )
        _, warm_headers, warm_body = server.request(
            "POST", "/v1/compute", request
        )
    assert cold_headers["x-cache"] == "miss"
    assert warm_headers["x-cache"] == "hit"
    assert cold_body == warm_body


def test_worker_tier_serves_the_same_bytes_as_inline():
    requests = _requests(6, seed=99)
    inline = ServeConfig(
        port=0, max_batch=8, max_wait_us=20_000, workers=0, cache_entries=0
    )
    actors = ServeConfig(
        port=0, max_batch=8, max_wait_us=20_000, workers=1, cache_entries=0
    )
    bodies = {}
    for label, config in (("inline", inline), ("actors", actors)):
        with start_server_thread(config) as server:
            with ThreadPoolExecutor(len(requests)) as pool:
                bodies[label] = list(
                    pool.map(
                        lambda payload: server.request(
                            "POST", "/v1/compute", payload
                        )[2],
                        requests,
                    )
                )
    assert bodies["inline"] == bodies["actors"]
