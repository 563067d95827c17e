"""The asyncio HTTP front end and the service object behind it.

:class:`ServeService` is transport-independent: ``handle(method, path,
body)`` returns ``(status, content_type, body_bytes, headers)`` and all
the serving policy lives there — admission control, deadline budgets,
cache lookup, batcher submission, drain state, metrics.  The HTTP layer
below it is a deliberately minimal stdlib HTTP/1.1 server (request line +
headers + Content-Length body, keep-alive) because the whole point of
this subsystem is *no new dependencies*.

Request lifecycle for ``POST /v1/compute``::

    admission (429 if the house is full, 503 if draining)
      -> parse + validate              (400 on bad input)
      -> cache lookup                  (hit: return stored bytes)
      -> micro-batcher                 (coalesce, deadline-evict: 504)
      -> execution tier                (worker crash: restart + retry)
      -> render canonical JSON, store in cache, respond

Responses are rendered with :func:`repro.digest.canonical_json`, so a
batched, a solo, and a cached answer to the same request are one and the
same byte string — the property the differential tests pin down.
"""

from __future__ import annotations

import asyncio
import json
import signal
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.digest import cached_source_digest, canonical_json
from repro.errors import ConfigurationError
from repro.parallel import WorkerError
from repro.serve.batcher import DeadlineExceeded, MicroBatcher
from repro.serve.cache import ResponseCache
from repro.serve.prometheus import render_prometheus
from repro.serve.protocol import BATCHABLE_OPS, ProtocolError, parse_request
from repro.serve.workers import ExecutionTier
from repro.trace import MetricsRegistry

#: Largest accepted request body; protects the parse path, not the sim.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Latency-histogram bucket bounds in milliseconds.
LATENCY_BOUNDS_MS = (0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

_JSON = "application/json"
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServeConfig:
    """Everything a server instance needs, CLI-mappable field by field."""

    host: str = "127.0.0.1"
    port: int = 8471
    max_batch: int = 64  #: lanes per coalesced dispatch (1 = no coalescing)
    workers: int = 0  #: 0 = inline threads; N = ProcessActor pool
    max_pending: int = 256  #: admission ceiling (in-flight requests)
    cache_entries: int = 4096  #: response-cache capacity (0 disables)
    drain_grace_s: float = 10.0  #: max wait for in-flight work on shutdown
    latency_window: int = 8192  #: samples kept for /stats percentiles

    def __post_init__(self) -> None:
        # Every bound is checked here, before any component or worker
        # process is built; the components re-check their own.
        if not 0 <= self.port <= 65_535:
            raise ConfigurationError(
                f"port must be in [0, 65535], got {self.port}"
            )
        for name, low in (
            ("max_batch", 1),
            ("workers", 0),
            ("max_pending", 1),
            ("cache_entries", 0),
            ("drain_grace_s", 0),
            ("latency_window", 1),
        ):
            value = getattr(self, name)
            if not value >= low:  # also rejects a NaN grace period
                raise ConfigurationError(
                    f"{name} must be >= {low}, got {value}"
                )


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list."""
    rank = max(0, min(len(samples) - 1, round(fraction * (len(samples) - 1))))
    return samples[rank]


def _latency_summary(samples: List[float]) -> Dict[str, Any]:
    if not samples:
        return {"count": 0, "p50_ms": None, "p95_ms": None, "p99_ms": None}
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "p50_ms": round(_percentile(ordered, 0.50), 4),
        "p95_ms": round(_percentile(ordered, 0.95), 4),
        "p99_ms": round(_percentile(ordered, 0.99), 4),
    }


class ServeService:
    """Serving policy: admission, caching, batching, draining, metrics."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.metrics = MetricsRegistry()
        self.cache = ResponseCache(config.cache_entries)
        self.tier = ExecutionTier(config.workers, metrics=self.metrics)
        self.batcher = MicroBatcher(
            self.tier.execute,
            max_batch=config.max_batch,
            capacity=self.tier.capacity,
            metrics=self.metrics,
        )
        self.source_digest = cached_source_digest()
        self.draining = False
        self.in_flight = 0
        self._start_time: Optional[float] = None
        self._idle = asyncio.Event()
        self._idle.set()
        #: (latency_ms, was_cache_hit) samples for /stats percentiles.
        self._latencies: Deque[Tuple[float, bool]] = deque(
            maxlen=config.latency_window
        )

    # -- plumbing ----------------------------------------------------------------
    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    def _uptime_s(self) -> float:
        if self._start_time is None:
            return 0.0
        return self._now() - self._start_time

    @staticmethod
    def _json_response(
        status: int, payload: Dict[str, Any]
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        return status, _JSON, canonical_json(payload).encode(), {}

    def _error(
        self, status: int, message: str, **headers: str
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        body = canonical_json({"error": message, "ok": False}).encode()
        return status, _JSON, body, dict(headers)

    # -- endpoints ---------------------------------------------------------------
    async def handle(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        """Route one request; never raises (failures become status codes)."""
        if self._start_time is None:
            self._start_time = self._now()
        if path == "/healthz" and method == "GET":
            status = "draining" if self.draining else "serving"
            return self._json_response(200, {"ok": True, "status": status})
        if path == "/metrics" and method == "GET":
            self._export_gauges()
            text = render_prometheus(self.metrics.to_dict())
            return 200, "text/plain; version=0.0.4", text.encode(), {}
        if path == "/stats" and method == "GET":
            return self._json_response(200, self.stats())
        if path == "/v1/compute":
            if method != "POST":
                return self._error(405, "use POST for /v1/compute")
            return await self._handle_compute(body)
        return self._error(404, f"no route for {method} {path}")

    def _export_gauges(self) -> None:
        self.metrics.gauge("serve_in_flight").set(self.in_flight)
        self.metrics.gauge("serve_cache_entries").set(len(self.cache))

    def stats(self) -> Dict[str, Any]:
        all_samples = [latency for latency, _ in self._latencies]
        cached = [latency for latency, hit in self._latencies if hit]
        uncached = [latency for latency, hit in self._latencies if not hit]
        return {
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            },
            "config": {
                "max_batch": self.config.max_batch,
                "max_pending": self.config.max_pending,
                "workers": self.config.workers,
            },
            "draining": self.draining,
            "in_flight": self.in_flight,
            "latency": {
                "all": _latency_summary(all_samples),
                "cached": _latency_summary(cached),
                "uncached": _latency_summary(uncached),
            },
            "source_digest": self.source_digest,
            "uptime_s": round(self._uptime_s(), 3),
        }

    # -- the compute path --------------------------------------------------------
    async def _handle_compute(
        self, body: bytes
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        if self.draining:
            self.metrics.counter("serve_draining_rejected_total").inc()
            return self._error(
                503, "server is draining", **{"Retry-After": "1"}
            )
        if self.in_flight >= self.config.max_pending:
            self.metrics.counter("serve_rejected_total").inc()
            return self._error(
                429,
                f"admission queue full ({self.config.max_pending} in flight)",
                **{"Retry-After": "0.05"},
            )
        self.metrics.counter("serve_requests_total").inc()
        started = self._now()
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError, RecursionError):
            return self._error(400, "request body is not valid JSON")
        try:
            request = parse_request(payload)
        except ProtocolError as exc:
            self.metrics.counter("serve_protocol_errors_total").inc()
            return self._error(400, str(exc))

        key = request.cache_key(self.source_digest)
        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.counter("serve_cache_hits_total").inc()
            self._record_latency(started, hit=True)
            return 200, _JSON, cached, {"X-Cache": "hit"}
        self.metrics.counter("serve_cache_misses_total").inc()

        deadline_at = None
        if request.deadline_ms is not None:
            deadline_at = started + request.deadline_ms / 1e3
        self.in_flight += 1
        self._idle.clear()
        try:
            result = await self.batcher.submit(
                request,
                deadline_at=deadline_at,
                coalesce=request.op in BATCHABLE_OPS,
            )
        except DeadlineExceeded as exc:
            return self._error(504, str(exc))
        except (ProtocolError, ConfigurationError) as exc:
            return self._error(400, str(exc))
        except WorkerError as exc:
            self.metrics.counter("serve_execution_errors_total").inc()
            return self._error(500, f"execution failed: {exc}")
        except Exception as exc:  # noqa: BLE001 - the front door never raises
            self.metrics.counter("serve_execution_errors_total").inc()
            return self._error(500, f"execution failed: {exc!r}")
        finally:
            self.in_flight -= 1
            if self.in_flight == 0:
                self._idle.set()
        response = canonical_json(
            {"ok": True, "op": request.op, "result": result}
        ).encode()
        self.cache.put(key, response)
        self._record_latency(started, hit=False)
        return 200, _JSON, response, {"X-Cache": "miss"}

    def _record_latency(self, started: float, hit: bool) -> None:
        latency_ms = (self._now() - started) * 1e3
        self._latencies.append((latency_ms, hit))
        self.metrics.histogram(
            "serve_request_latency_ms", bounds=LATENCY_BOUNDS_MS
        ).observe(latency_ms)

    # -- draining ----------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse new compute work; flush open batches immediately."""
        if not self.draining:
            self.draining = True
            self.batcher.flush_all()

    async def drained(self) -> None:
        """Resolve when in-flight work finishes (or the grace period ends)."""
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_grace_s
            )
        except asyncio.TimeoutError:
            pass  # grace exhausted; the caller shuts down regardless

    def close(self) -> None:
        self.tier.close()


# -- the HTTP/1.1 layer ------------------------------------------------------------
class _BadFraming(Exception):
    """A request refused before routing: answered, then the socket closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request off the stream; None on EOF or a dropped peer.

    A malformed request line or ``Content-Length`` raises a 400
    :class:`_BadFraming`; a body above ``MAX_BODY_BYTES``, a 413 one.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        ConnectionResetError,
    ):
        return None
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, path, _version = request_line.split(" ", 2)
    except ValueError:
        raise _BadFraming(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        length = -1
    if length < 0:
        raise _BadFraming(400, f"invalid Content-Length {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise _BadFraming(
            413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
    return method, path, headers, body


def _render_response(
    status: int, content_type: str, body: bytes, headers: Dict[str, str],
    keep_alive: bool,
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _handle_connection(
    service: ServeService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        keep_alive = True
        while keep_alive:
            try:
                parsed = await _read_request(reader)
            except _BadFraming as exc:
                keep_alive = False
                reply = service._error(exc.status, str(exc))
            else:
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "keep-alive") != "close"
                reply = await service.handle(method, path, body)
            writer.write(_render_response(*reply, keep_alive))
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def start_http_server(
    service: ServeService, host: str, port: int
) -> "asyncio.base_events.Server":
    """Bind the HTTP front end; ``port=0`` binds an ephemeral port."""

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(
        handler, host=host, port=port, limit=MAX_BODY_BYTES
    )


def bound_port(server: "asyncio.base_events.Server") -> int:
    return int(server.sockets[0].getsockname()[1])


async def serve_forever(
    config: ServeConfig,
    ready: Optional[Callable[[ServeService, int], None]] = None,
    install_signals: bool = True,
    stop_event: Optional[asyncio.Event] = None,
) -> None:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    ``ready(service, port)`` fires once the socket is bound — the CLI
    prints the listening line from it, tests capture the port.  Passing
    ``stop_event`` gives embedders (the test harness) a programmatic
    SIGTERM: setting it triggers the same drain path.
    """
    service = ServeService(config)
    server = await start_http_server(service, config.host, config.port)
    stop = stop_event if stop_event is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or exotic platform: rely on stop()
    if ready is not None:
        ready(service, bound_port(server))
    try:
        await stop.wait()
    finally:
        service.begin_drain()
        await service.drained()
        server.close()
        await server.wait_closed()
        service.close()
