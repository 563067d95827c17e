"""The serving differential: coalesced == solo == scalar, byte for byte.

A coalesced batch of N distinct requests must produce responses
**byte-identical** to N sequential single-request runs.  Four
independent witnesses:

* a coalescing server under concurrent load, whose requests coalesce
  into one group,
* a non-coalescing server (max_batch=1) taking the same requests
  serially, each a one-row group,
* direct scalar ``DotProductUnit.run_counts`` ground truth,
* the same rows as lanes of one batch-kernel dispatch on the DPU circuit.
"""

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.dpu import DotProductUnit
from repro.encoding.epoch import EpochSpec
from repro.serve import ServeConfig, start_server_thread
from tests.strategies import dpu_batch_counts

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


def _wait_for(condition, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_coalesced_batch_is_byte_identical_to_sequential_singles():
    requests = _requests(48)
    blocker = _requests(1, seed=1)[0]

    # Witness 1: concurrent clients against a coalescing server.  The
    # cache is disabled so every request truly executes.  A blocker
    # request holds the one executor thread until all the others are
    # queued, so they pile into one group that takes the freed slot.
    coalescing = ServeConfig(port=0, workers=0, cache_entries=0)
    with start_server_thread(coalescing) as server:
        service = server.service
        gate = threading.Event()
        engine = service.tier._engine
        real_execute_group = engine.execute_group

        def gated_execute_group(op, config, operands_list):
            assert gate.wait(timeout=60), "gate never opened"
            return real_execute_group(op, config, operands_list)

        engine.execute_group = gated_execute_group

        def post(payload):
            return server.request("POST", "/v1/compute", payload)[2]

        with ThreadPoolExecutor(len(requests) + 1) as pool:
            blocked = pool.submit(post, blocker)
            _wait_for(lambda: service.in_flight == 1)
            batched = [pool.submit(post, payload) for payload in requests]
            _wait_for(lambda: service.in_flight == len(requests) + 1)
            gate.set()
            blocked.result()
            batched_bodies = [future.result() for future in batched]
        snapshot = service.metrics.to_dict()
    # Beside the blocker, all requests coalesced into one group.
    assert snapshot["counters"]["serve_batches_total"] == 2
    lanes = snapshot["histograms"]["serve_batch_lanes"]
    assert lanes["max"] == len(requests)

    # Witness 2: the same requests, one at a time, on a max_batch=1 server.
    solo = ServeConfig(port=0, max_batch=1, workers=0, cache_entries=0)
    with start_server_thread(solo) as server:
        solo_bodies = [
            server.request("POST", "/v1/compute", payload)[2]
            for payload in requests
        ]

    assert batched_bodies == solo_bodies  # byte-identical, per request

    # Witness 3: scalar ground truth straight from the structural DPU.
    unit = DotProductUnit(EpochSpec(bits=_BITS, slot_fs=40_000), _LENGTH)
    a_rows = [payload["a_slots"] for payload in requests]
    b_rows = [payload["b_counts"] for payload in requests]
    expected = [unit.run_counts(a, b) for a, b in zip(a_rows, b_rows)]
    assert solo_bodies == [
        b'{"ok":true,"op":"dpu.dot","result":{"count":%d}}' % count
        for count in expected
    ]

    # Witness 4: the same rows as lanes of one batch-kernel dispatch.
    assert dpu_batch_counts(unit, a_rows, b_rows) == expected


def test_cached_response_is_the_same_byte_string_as_the_cold_one():
    request = _requests(1)[0]
    config = ServeConfig(port=0, max_batch=4, workers=0)
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
    inline = ServeConfig(port=0, max_batch=8, workers=0, cache_entries=0)
    actors = ServeConfig(port=0, max_batch=8, workers=1, cache_entries=0)
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
