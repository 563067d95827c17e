"""The micro-batching queue: concurrent requests become batch lanes.

Requests sharing a batch key (same op + canonical config) accumulate in
a *group*.  A group flushes — becoming one
:meth:`~repro.serve.engine.ComputeEngine.execute_group` dispatch — on
the first of:

* **size**: it reaches ``max_batch`` lanes, even while the tier is busy;
* **free slot**: it was opened while fewer than ``capacity`` dispatches
  were in flight, and flushes at the end of that event-loop tick with
  every request submitted in the tick; or a dispatch finished and it is
  the oldest open group.  Requests that arrive while the tier is busy
  pile into that group, so coalescing needs no timer.

Every trigger funnels through one ``_flush`` that pops the group only
while it is still the open group for its key, so a stale trigger can
never double-dispatch it or dispatch a newer group under the same key.

Deadlines are enforced at flush time: a request whose budget expired
while queued is ejected (its waiter gets :class:`DeadlineExceeded`, the
service maps that to HTTP 504) *before* lanes are allocated, so expired
work never occupies the simulator.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.serve.protocol import Request
from repro.trace import MetricsRegistry


class DeadlineExceeded(ReproError):
    """The request's deadline expired before execution; maps to HTTP 504."""


#: The execute hook: ``(op, config, operands_list) -> results`` awaitable.
ExecuteFn = Callable[[str, Dict[str, Any], List[Dict[str, Any]]],
                     Awaitable[List[Dict[str, Any]]]]

_Entry = Tuple[Request, "asyncio.Future[Dict[str, Any]]", Optional[float]]


class _Group:
    __slots__ = ("key", "entries")

    def __init__(self, key: str):
        self.key = key
        self.entries: List[_Entry] = []


class MicroBatcher:
    """Coalesces submissions into grouped execute dispatches; ``capacity``
    is how many dispatches ``execute`` runs at once."""

    def __init__(
        self,
        execute: ExecuteFn,
        max_batch: int = 64,
        capacity: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._execute = execute
        self.max_batch = max_batch
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Open groups by key; insertion order is age (oldest first).
        self._groups: Dict[str, _Group] = {}
        self._in_flight = 0
        self._tasks: "set[asyncio.Task[None]]" = set()

    # -- submission --------------------------------------------------------------
    async def submit(
        self,
        request: Request,
        deadline_at: Optional[float] = None,
        coalesce: bool = True,
    ) -> Dict[str, Any]:
        """Queue one request; resolves with its result dict.

        ``deadline_at`` is an ``loop.time()`` instant; ``coalesce=False``
        (model ops, or a ``max_batch=1`` server) dispatches immediately
        as a group of one — same code path, zero queueing delay.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        entry: _Entry = (request, future, deadline_at)
        if not coalesce or self.max_batch == 1:
            group = _Group(request.batch_key() + "|solo")
            group.entries.append(entry)
            self._dispatch(group)
            return await future
        key = request.batch_key()
        group = self._groups.get(key)
        if group is None:
            group = _Group(key)
            self._groups[key] = group
            if self._in_flight < self.capacity:
                loop.call_soon(self._flush, group)
        group.entries.append(entry)
        if len(group.entries) >= self.max_batch:
            self._flush(group)
        return await future

    # -- flushing ----------------------------------------------------------------
    def _flush(self, group: _Group) -> None:
        """Pop-and-dispatch ``group`` if it is still open (stale: no-op)."""
        if self._groups.get(group.key) is group:
            del self._groups[group.key]
            self._dispatch(group)

    def flush_all(self) -> None:
        """Flush every open group now (drain path)."""
        for group in list(self._groups.values()):
            self._flush(group)

    @property
    def pending(self) -> int:
        """Requests queued in open (not yet dispatched) groups."""
        return sum(len(group.entries) for group in self._groups.values())

    def _dispatch(self, group: _Group) -> None:
        self._in_flight += 1
        task = asyncio.ensure_future(self._run(group))
        # Keep a strong reference until done (asyncio only holds weakly).
        self._tasks.add(task)
        task.add_done_callback(self._finished)

    def _finished(self, task: "asyncio.Task[None]") -> None:
        """A slot freed: hand it to the oldest open group."""
        self._tasks.discard(task)
        self._in_flight -= 1
        while self._groups and self._in_flight < self.capacity:
            self._flush(next(iter(self._groups.values())))

    async def _run(self, group: _Group) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: List[_Entry] = []
        for request, future, deadline_at in group.entries:
            if future.cancelled():
                continue
            if deadline_at is not None and now >= deadline_at:
                self.metrics.counter("serve_deadline_evictions_total").inc()
                future.set_exception(
                    DeadlineExceeded(
                        f"deadline expired {1e3 * (now - deadline_at):.1f} ms "
                        "before the batch dispatched"
                    )
                )
                continue
            live.append((request, future, deadline_at))
        if not live:
            return
        self.metrics.counter("serve_batches_total").inc()
        self.metrics.counter("serve_batched_requests_total").inc(len(live))
        self.metrics.histogram("serve_batch_lanes").observe(len(live))
        first = live[0][0]
        try:
            results = await self._execute(
                first.op, first.config, [request.operands for request, _, _ in live]
            )
            if len(results) != len(live):
                raise ConfigurationError(
                    f"engine returned {len(results)} results for "
                    f"{len(live)} requests"
                )
        except BaseException as exc:  # noqa: BLE001 - fan the failure out
            for _, future, _ in live:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future, _), result in zip(live, results):
            if not future.done():
                future.set_result(result)
