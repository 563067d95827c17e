"""repro.serve — the U-SFQ accelerator as an async, request-batched service.

The paper's hardware thesis is that pulse-streams amortise: one epoch of
the DPU costs the same whether one or sixty-four dot products ride on it,
because lanes share the event stream.  This package is the software
restatement of that claim.  A long-running asyncio service accepts
dot-product / FIR / PE requests over HTTP/JSON, and a **micro-batching
queue** coalesces concurrent requests into one
:meth:`repro.core.dpu.DotProductUnit.run_counts_batch` group, which runs
on the executor measured fastest for its size: per-row sealed runs for
small groups, lanes of one :class:`repro.pulsesim.batch.BatchSimulator`
dispatch from ``repro.core.dpu.BATCH_CROSSOVER_LANES`` lanes on.

Layers (each importable and testable without the one above):

* :mod:`~repro.serve.protocol` — request parsing/validation, canonical
  cache keys, batch-group keys.
* :mod:`~repro.serve.engine` — the compute backend: compiled-circuit
  memoisation, ``run_counts_batch`` execution, model-based FIR/PE ops.
* :mod:`~repro.serve.cache` — content-addressed response cache (keys
  include the source-tree digest, so stale code never serves).
* :mod:`~repro.serve.batcher` — the micro-batching queue: flush on size
  or timer, per-request deadline eviction.
* :mod:`~repro.serve.workers` — execution tier: inline threads or a pool
  of :class:`repro.parallel.ProcessActor` workers with crash restart.
* :mod:`~repro.serve.server` — minimal stdlib HTTP/1.1 front end, the
  admission queue, draining, and the ``/metrics`` ``/stats`` ``/healthz``
  endpoints.
* :mod:`~repro.serve.testing` — in-process server harness for tests and
  benchmarks.
"""

from repro.serve.batcher import DeadlineExceeded, MicroBatcher
from repro.serve.cache import ResponseCache
from repro.serve.engine import ComputeEngine
from repro.serve.protocol import ProtocolError, Request, parse_request
from repro.serve.server import ServeConfig, ServeService, serve_forever
from repro.serve.testing import ServerHandle, start_server_thread

__all__ = [
    "ComputeEngine",
    "DeadlineExceeded",
    "MicroBatcher",
    "ProtocolError",
    "Request",
    "ResponseCache",
    "ServeConfig",
    "ServeService",
    "ServerHandle",
    "parse_request",
    "serve_forever",
    "start_server_thread",
]
