"""ServeService + HTTP front end: routes, admission, deadlines, drain.

Policy tests drive ``ServeService.handle`` directly (transport-free);
endpoint tests go through real sockets via the testing harness.
"""

import asyncio
import json
import socket

import pytest

from repro.digest import cached_source_digest
from repro.errors import ConfigurationError
from repro.serve import ServeConfig, ServeService, start_server_thread
from repro.serve.server import bound_port, start_http_server

_DPU = {
    "op": "dpu.dot",
    "config": {"bits": 3, "slot_fs": 40_000, "length": 2},
    "a_slots": [1, 2],
    "b_counts": [3, 4],
}


def _body(payload) -> bytes:
    return json.dumps(payload).encode()


# -- transport-free policy tests -------------------------------------------------
def test_handle_maps_malformed_input_to_400():
    async def main():
        service = ServeService(ServeConfig(port=0, workers=0))
        try:
            garbage = await service.handle("POST", "/v1/compute", b"{nope")
            bad_op = await service.handle(
                "POST", "/v1/compute", _body({"op": "nope"})
            )
            bad_operand = await service.handle(
                "POST", "/v1/compute", _body(dict(_DPU, a_slots=[1]))
            )
            return garbage[0], bad_op[0], bad_operand[0]
        finally:
            service.close()

    assert asyncio.run(main()) == (400, 400, 400)


@pytest.mark.parametrize("workers", [0, 1])
def test_dpu_length_that_is_no_power_of_two_is_a_protocol_error(workers):
    """A DPU needs a power-of-two length >= 2; anything else is rejected
    at parse time on both tiers (never a worker-side 500)."""

    async def main():
        service = ServeService(ServeConfig(port=0, workers=workers))
        try:
            replies = []
            for length in (3, 1):
                payload = dict(
                    _DPU,
                    config=dict(_DPU["config"], length=length),
                    a_slots=[1] * length,
                    b_counts=[3] * length,
                )
                replies.append(
                    await service.handle("POST", "/v1/compute", _body(payload))
                )
            return replies, service.metrics.to_dict()["counters"]
        finally:
            service.close()

    replies, counters = asyncio.run(main())
    assert [reply[0] for reply in replies] == [400, 400]
    for reply in replies:
        assert b"'length'" in reply[2]
        assert b"Traceback" not in reply[2]
    assert counters["serve_protocol_errors_total"] == 2
    assert counters.get("serve_execution_errors_total", 0) == 0
    assert counters.get("serve_batches_total", 0) == 0


def test_unknown_route_and_wrong_method():
    async def main():
        service = ServeService(ServeConfig(port=0, workers=0))
        try:
            missing = await service.handle("GET", "/v2/zap", b"")
            wrong = await service.handle("GET", "/v1/compute", b"")
            return missing[0], wrong[0]
        finally:
            service.close()

    assert asyncio.run(main()) == (404, 405)


def test_admission_ceiling_returns_429_with_retry_after():
    async def main():
        config = ServeConfig(port=0, workers=0, max_pending=1, max_batch=8)
        service = ServeService(config)
        gate = asyncio.Event()
        real_execute = service.tier.execute

        async def gated_execute(op, cfg, operands):
            await gate.wait()
            return await real_execute(op, cfg, operands)

        service.batcher._execute = gated_execute
        try:
            first = asyncio.ensure_future(
                service.handle("POST", "/v1/compute", _body(_DPU))
            )
            while service.in_flight == 0:
                await asyncio.sleep(0)
            rejected = await service.handle(
                "POST", "/v1/compute", _body(dict(_DPU, a_slots=[2, 2]))
            )
            gate.set()
            accepted = await first
            return rejected, accepted
        finally:
            service.close()

    rejected, accepted = asyncio.run(main())
    assert rejected[0] == 429
    assert "Retry-After" in rejected[3]
    assert accepted[0] == 200


def test_deadline_expiring_in_queue_returns_504():
    async def main():
        service = ServeService(ServeConfig(port=0, workers=0, max_batch=64))
        gate = asyncio.Event()
        real_execute = service.tier.execute

        async def gated_execute(op, cfg, operands):
            await gate.wait()
            return await real_execute(op, cfg, operands)

        service.batcher._execute = gated_execute
        try:
            # The first request holds the executor busy, so the second
            # waits in the queue past its 1 ms budget: evicted at flush.
            busy = asyncio.ensure_future(
                service.handle("POST", "/v1/compute", _body(_DPU))
            )
            while service.in_flight == 0:
                await asyncio.sleep(0)
            doomed = asyncio.ensure_future(
                service.handle(
                    "POST",
                    "/v1/compute",
                    _body(dict(_DPU, a_slots=[2, 2], deadline_ms=1)),
                )
            )
            await asyncio.sleep(0.02)
            gate.set()
            responses = await asyncio.gather(busy, doomed)
            return responses, service.metrics.to_dict()
        finally:
            service.close()

    (busy, doomed), snapshot = asyncio.run(main())
    assert busy[0] == 200
    assert doomed[0] == 504
    assert snapshot["counters"]["serve_deadline_evictions_total"] == 1
    assert snapshot["counters"]["serve_batches_total"] == 1


def test_generous_deadline_still_succeeds():
    async def main():
        config = ServeConfig(port=0, workers=0, max_batch=4)
        service = ServeService(config)
        try:
            return await service.handle(
                "POST", "/v1/compute", _body(dict(_DPU, deadline_ms=30_000))
            )
        finally:
            service.close()

    assert asyncio.run(main())[0] == 200


def test_draining_rejects_new_work_but_finishes_old():
    async def main():
        config = ServeConfig(port=0, workers=0, max_batch=8)
        service = ServeService(config)
        gate = asyncio.Event()
        real_execute = service.tier.execute

        async def gated_execute(op, cfg, operands):
            await gate.wait()
            return await real_execute(op, cfg, operands)

        service.batcher._execute = gated_execute
        try:
            old = asyncio.ensure_future(
                service.handle("POST", "/v1/compute", _body(_DPU))
            )
            while service.in_flight == 0:
                await asyncio.sleep(0)
            service.begin_drain()
            new = await service.handle(
                "POST", "/v1/compute", _body(dict(_DPU, a_slots=[2, 2]))
            )
            health = await service.handle("GET", "/healthz", b"")
            gate.set()
            finished = await old
            await service.drained()
            return new, health, finished, service.in_flight
        finally:
            service.close()

    new, health, finished, in_flight = asyncio.run(main())
    assert new[0] == 503
    assert json.loads(health[2])["status"] == "draining"
    assert finished[0] == 200
    assert in_flight == 0


def test_cache_hits_bypass_the_batcher():
    async def main():
        config = ServeConfig(port=0, workers=0, max_batch=8)
        service = ServeService(config)
        try:
            cold = await service.handle("POST", "/v1/compute", _body(_DPU))
            dispatched_after_cold = service.metrics.counter(
                "serve_batches_total"
            ).value
            warm = await service.handle("POST", "/v1/compute", _body(_DPU))
            dispatched_after_warm = service.metrics.counter(
                "serve_batches_total"
            ).value
            return cold, warm, dispatched_after_cold, dispatched_after_warm
        finally:
            service.close()

    cold, warm, after_cold, after_warm = asyncio.run(main())
    assert cold[0] == warm[0] == 200
    assert cold[2] == warm[2]  # byte-identical
    assert warm[3]["X-Cache"] == "hit"
    assert after_warm == after_cold  # no new dispatch for the hit


def test_stats_shape_and_source_digest():
    async def main():
        service = ServeService(ServeConfig(port=0, workers=0))
        try:
            await service.handle("POST", "/v1/compute", _body(_DPU))
            await service.handle("POST", "/v1/compute", _body(_DPU))
            return json.loads((await service.handle("GET", "/stats", b""))[2])
        finally:
            service.close()

    stats = asyncio.run(main())
    assert stats["source_digest"] == cached_source_digest()
    assert stats["cache"] == {"entries": 1, "hits": 1, "misses": 1}
    assert stats["latency"]["all"]["count"] == 2
    assert stats["latency"]["cached"]["count"] == 1
    assert stats["latency"]["uncached"]["p50_ms"] is not None
    assert stats["in_flight"] == 0 and stats["draining"] is False


# -- socket-level tests ----------------------------------------------------------
def test_http_round_trip_metrics_and_keep_alive():
    with start_server_thread(
        ServeConfig(port=0, workers=0, max_batch=4)
    ) as server:
        status, payload = server.post_json("/v1/compute", _DPU)
        assert status == 200 and payload["ok"] is True
        status, health = server.get_json("/healthz")
        assert (status, health["status"]) == (200, "serving")
        status, headers, body = server.request("GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode()
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_request_latency_ms_bucket" in text
        assert 'le="+Inf"' in text


def _raw_exchange(port, request):
    """Send raw bytes; read everything until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as raw:
        raw.sendall(request)
        chunks = []
        while True:
            chunk = raw.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _split_response(data):
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, json.loads(body)


def test_http_parse_errors_close_cleanly():
    with start_server_thread(ServeConfig(port=0, workers=0)) as server:
        data = _raw_exchange(server.port, b"GARBAGE-WITHOUT-SPACES\r\n\r\n")
        status, headers, body = _split_response(data)
        assert status == 400 and headers["Connection"] == "close"
        assert body == {"error": "malformed request line", "ok": False}
        # ... and the server still serves afterwards.
        status, _ = server.get_json("/healthz")
        assert status == 200


def test_http_deeply_nested_json_gets_a_400():
    body = b"[" * 100_000 + b"]" * 100_000
    with start_server_thread(ServeConfig(port=0, workers=0)) as server:
        request = (
            "POST /v1/compute HTTP/1.1\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        status, _headers, payload = _split_response(
            _raw_exchange(server.port, request)
        )
        assert status == 400
        assert payload == {"error": "request body is not valid JSON", "ok": False}


@pytest.mark.parametrize(
    "length, status",
    [("abc", 400), ("-1", 400), ("99999999", 413)],
)
def test_http_bad_content_length_gets_a_status_before_the_body(length, status):
    with start_server_thread(ServeConfig(port=0, workers=0)) as server:
        # No body follows: the answer must not wait for one.
        request = (
            f"POST /v1/compute HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        )
        got, headers, body = _split_response(
            _raw_exchange(server.port, request.encode())
        )
        assert got == status and headers["Connection"] == "close"
        assert body["ok"] is False and length in body["error"]


def test_ephemeral_port_binding_reports_real_port():
    async def main():
        service = ServeService(ServeConfig(port=0, workers=0))
        server = await start_http_server(service, "127.0.0.1", 0)
        try:
            return bound_port(server)
        finally:
            server.close()
            await server.wait_closed()
            service.close()

    assert asyncio.run(main()) > 0


def test_stop_is_idempotent():
    server = start_server_thread(ServeConfig(port=0, workers=0))
    server.stop()
    server.stop()


@pytest.mark.parametrize(
    "payload, expected_status",
    [
        ({"op": "pe.mac", "config": {"bits": 4, "slot_fs": 40_000},
          "values": [0.5, 0.5, 0.5]}, 200),
        ({"op": "pe.matmul", "config": {"bits": 4, "slot_fs": 40_000},
          "a": [[0.5]], "b": [[0.5]]}, 200),
        ({"op": "fir.unary",
          "config": {"bits": 5, "slot_fs": 40_000,
                     "coefficients": [0.5, -0.5]},
          "samples": [0.25, -0.25]}, 200),
    ],
)
def test_model_ops_over_http(payload, expected_status):
    with start_server_thread(ServeConfig(port=0, workers=0)) as server:
        status, body = server.post_json("/v1/compute", payload)
        assert status == expected_status
        assert body["ok"] is True


# -- configuration bounds --------------------------------------------------------
@pytest.mark.parametrize(
    "field, value",
    [
        ("port", -1),
        ("port", 70_000),
        ("max_batch", 0),
        ("workers", -1),
        ("max_pending", 0),
        ("cache_entries", -1),
        ("drain_grace_s", -5.0),
        ("drain_grace_s", float("nan")),
        ("latency_window", 0),
    ],
)
def test_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(ConfigurationError, match=field):
        ServeConfig(**{field: value})


def test_config_accepts_its_edge_values():
    config = ServeConfig(port=65_535, max_batch=1, workers=0, max_pending=1,
                         cache_entries=0, drain_grace_s=0.0, latency_window=1)
    assert ServeConfig(port=0).port == 0 and config.port == 65_535
