"""The execution tier: where a flushed batch actually runs.

Two shapes behind one ``async execute()`` interface:

* ``workers=0`` — **inline**: one in-process :class:`ComputeEngine`
  called through a thread pool (the event loop must never block on a
  simulation; the GIL serialises the work but admission/caching/batching
  stay responsive).  Right for tests and single-tenant use.
* ``workers>=1`` — a pool of :class:`repro.parallel.ProcessActor`
  workers, each owning its own engine (and its own compiled-circuit
  memo).  Batches are handed to a free actor; actors run truly in
  parallel across cores.  A worker that *dies* mid-batch (OOM-kill,
  segfault) surfaces as :class:`~repro.parallel.WorkerCrashed`: the tier
  restarts the actor and retries the batch once — safe because every op
  is a pure function of its request — before giving up.

Handing a blocking ``actor.call`` to the loop's thread pool keeps the
asyncio side single-colour: the batcher just awaits ``execute()``.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.parallel import ProcessActor, WorkerCrashed
from repro.serve.engine import ComputeEngine
from repro.trace import MetricsRegistry


def _worker_factory() -> Any:
    """Build the actor-side handler (runs inside the worker process)."""
    engine = ComputeEngine()

    def handler(command: str, payload: Any) -> Any:
        if command == "execute":
            return engine.execute_group(
                payload["op"], payload["config"], payload["operands"]
            )
        if command == "warm":
            return engine.warm(payload["op"], payload["config"])
        if command == "ping":
            return "pong"
        raise ValueError(f"unknown worker command {command!r}")

    return handler


class ExecutionTier:
    """Uniform async execution over inline threads or actor processes."""

    def __init__(
        self, workers: int = 0, metrics: Optional[MetricsRegistry] = None
    ):
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        #: Dispatches that run at once: one executor thread when inline,
        #: one slot per actor process.
        self.capacity = max(1, workers)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._threads = ThreadPoolExecutor(
            max_workers=self.capacity, thread_name_prefix="serve-exec"
        )
        self._engine: Optional[ComputeEngine] = None
        self._actors: List[ProcessActor] = []
        self._free: "Optional[asyncio.Queue[int]]" = None
        if workers == 0:
            self._engine = ComputeEngine()
        else:
            self._actors = [
                ProcessActor(_worker_factory) for _ in range(workers)
            ]

    def _free_queue(self) -> "asyncio.Queue[int]":
        # Built lazily so construction does not require a running loop.
        if self._free is None:
            self._free = asyncio.Queue()
            for index in range(len(self._actors)):
                self._free.put_nowait(index)
        return self._free

    async def execute(
        self,
        op: str,
        config: Dict[str, Any],
        operands_list: List[Dict[str, Any]],
    ) -> List[Dict[str, Any]]:
        """Run one batch group; returns results in request order."""
        loop = asyncio.get_running_loop()
        if self._engine is not None:
            return await loop.run_in_executor(
                self._threads,
                self._engine.execute_group,
                op,
                config,
                operands_list,
            )
        payload = {"op": op, "config": config, "operands": operands_list}
        index = await self._free_queue().get()
        actor = self._actors[index]
        try:
            try:
                return await loop.run_in_executor(
                    self._threads, actor.call, "execute", payload
                )
            except WorkerCrashed:
                # The batch may or may not have run; every op is pure, so
                # a single retry on a fresh process is always safe.
                self.metrics.counter("serve_worker_restarts_total").inc()
                await loop.run_in_executor(self._threads, actor.restart)
                return await loop.run_in_executor(
                    self._threads, actor.call, "execute", payload
                )
        finally:
            self._free_queue().put_nowait(index)

    async def warm(self, op: str, config: Dict[str, Any]) -> None:
        """Pre-compile ``config`` everywhere (benchmark/boot warmup)."""
        loop = asyncio.get_running_loop()
        if self._engine is not None:
            await loop.run_in_executor(
                self._threads, self._engine.warm, op, config
            )
            return
        payload = {"op": op, "config": config}
        for actor in self._actors:
            await loop.run_in_executor(
                self._threads, actor.call, "warm", payload
            )

    def close(self) -> None:
        for actor in self._actors:
            actor.close()
        self._threads.shutdown(wait=False, cancel_futures=True)
