"""Event-queue kernel for the SFQ pulse simulator.

The *reference* kernel is a classic discrete-event loop over a binary
heap.  Heap keys are ``(time, priority, sequence)``:

* ``time`` is the integer femtosecond timestamp of the pulse arrival,
* ``priority`` is the destination port's tie-break rank so that cells can
  declare, e.g., "reset beats clock when simultaneous", and
* ``sequence`` is a monotonically increasing counter that makes ordering
  total and runs fully deterministic.

``Simulator(circuit)`` does not necessarily construct this class: the
``kernel`` argument ("auto", the default, "reference", or "sealed")
selects the implementation, and "auto"/"sealed" return the compiled
fast-path kernel from :mod:`repro.pulsesim.kernel`, which preserves the
exact ``(time, priority, sequence)`` total order, stats, and outputs.
This module keeps the straightforward heap loop as the executable
specification the compiled kernel is differentially tested against.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.pulsesim.element import Element
from repro.pulsesim.netlist import Circuit


@dataclass
class SimulationStats:
    """Counters exposed after a run for tests and benchmarks.

    ``max_queue_depth`` is the high-water mark of pending events, sampled
    whenever simulated time strictly advances (before the first event of
    the new timestamp is processed).  Both kernels sample at the same
    instants with the same formula — scheduled minus processed events — so
    the value is bit-identical across kernels and run chunkings.
    ``wall_s`` is the host wall-clock time spent inside the event loop; it
    is the one deliberately non-deterministic counter (excluded from all
    bit-identity comparisons).
    """

    events_processed: int = 0
    pulses_emitted: int = 0
    end_time: int = 0
    max_queue_depth: int = 0
    wall_s: float = 0.0

    def merge(self, other: "SimulationStats") -> None:
        """Fold another counter set into this one (``end_time`` and
        ``max_queue_depth`` take the max; the rest add)."""
        self.events_processed += other.events_processed
        self.pulses_emitted += other.pulses_emitted
        self.end_time = max(self.end_time, other.end_time)
        self.max_queue_depth = max(self.max_queue_depth, other.max_queue_depth)
        self.wall_s += other.wall_s


# Active collectors for :func:`capture_stats`.  Every Simulator.run() adds
# its per-call deltas to each collector on the stack, so a caller can
# aggregate work done by simulators it never sees (e.g. the experiment
# runner totalling events across all netlists an experiment builds).
# Stored in a ContextVar (immutable tuple) so concurrent asyncio tasks and
# copied-context threads each get their own stack; see active_collectors().
_collectors: ContextVar[Tuple[SimulationStats, ...]] = ContextVar(
    "repro_pulsesim_stats_collectors", default=()
)


def active_collectors() -> Tuple[SimulationStats, ...]:
    """The ambient :func:`capture_stats` collectors, innermost last."""
    return _collectors.get()


@contextmanager
def capture_stats() -> Iterator[SimulationStats]:
    """Accumulate stats from every ``Simulator.run()`` inside the block."""
    collector = SimulationStats()
    token = _collectors.set(_collectors.get() + (collector,))
    try:
        yield collector
    finally:
        _collectors.reset(token)


@contextmanager
def quiet_stats() -> Iterator[None]:
    """Hide the ambient collectors for the block (engines that re-run the
    same work across shards/windows report merged totals exactly once)."""
    token = _collectors.set(())
    try:
        yield
    finally:
        _collectors.reset(token)


class Simulator:
    """Runs a :class:`Circuit` by draining a time-ordered event queue.

    Args:
        circuit: The netlist to simulate.
        max_events: Per-``run()`` event budget (oscillation guard).
        kernel: ``"auto"`` (default) and ``"sealed"`` use the compiled
            fast-path kernel (:mod:`repro.pulsesim.kernel`); ``"sealed"``
            additionally seals the circuit.  ``"reference"`` forces this
            class's plain heap loop.  ``None`` defers to the
            ``REPRO_KERNEL`` environment variable, then ``"auto"``.
        trace: An optional :class:`repro.trace.TraceSession`.  When set,
            :meth:`run` steps the kernel one distinct timestamp at a time
            so the session can sample scheduler health; results and stats
            stay bit-identical to an untraced run.  When ``None`` (the
            default) tracing costs exactly one attribute check per
            :meth:`run` call — the hot loop is untouched.
    """

    def __new__(
        cls,
        circuit: Circuit = None,
        max_events: int = 50_000_000,
        kernel: Optional[str] = None,
        trace=None,
    ):
        if cls is Simulator:
            from repro.pulsesim.kernel import SealedSimulator, resolve_kernel

            choice = resolve_kernel(kernel)
            if choice != "reference":
                if choice == "sealed":
                    circuit.seal()
                return super().__new__(SealedSimulator)
        return super().__new__(cls)

    def __init__(
        self,
        circuit: Circuit,
        max_events: int = 50_000_000,
        kernel: Optional[str] = None,
        trace=None,
    ):
        self.circuit = circuit
        self.max_events = max_events
        self.kernel = "reference"
        self._trace = trace
        self._heap: List[Tuple[int, int, int, Element, str]] = []
        self._sequence = 0
        self.now = 0
        self.stats = SimulationStats()

    # -- scheduling ------------------------------------------------------------
    def schedule_input(self, element: Element, port: str, time: int) -> None:
        """Inject an external stimulus pulse at ``element.port``."""
        if time < 0:
            raise SimulationError(f"cannot schedule pulse at negative time {time}")
        priority = element.input_priority(port)
        heapq.heappush(self._heap, (time, priority, self._sequence, element, port))
        self._sequence += 1

    def schedule_train(self, element: Element, port: str, times) -> None:
        """Inject a train of stimulus pulses (any iterable of times)."""
        for time in times:
            self.schedule_input(element, port, time)

    def emit(self, source: Element, port: str, time: int) -> None:
        """Deliver a pulse emitted by ``source.port`` to its fanout.

        Called by cells (via :meth:`Element.emit`); also notifies probes.
        """
        self.stats.pulses_emitted += 1
        self.circuit.notify_probes(source, port, time)
        for wire in self.circuit._fanout_raw(source, port):
            arrival = time + wire.delay
            priority = wire.sink.input_priority(wire.sink_port)
            heapq.heappush(
                self._heap,
                (arrival, priority, self._sequence, wire.sink, wire.sink_port),
            )
            self._sequence += 1

    # -- execution ---------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> SimulationStats:
        """Drain the event heap, optionally stopping after time ``until``.

        Events scheduled at exactly ``until`` are still processed; events
        strictly later remain queued, so a run can be resumed by calling
        :meth:`run` again.  Resume semantics:

        * ``stats`` accumulate across resumed runs (they are reset only by
          :meth:`reset`), but ``max_events`` is a *per-call* budget — each
          ``run()`` may process up to ``max_events`` events regardless of
          how many earlier calls processed;
        * ``stats.end_time`` is the simulated horizon: ``until`` when a
          bounded run stops early (time advanced to ``until`` even if the
          last event was earlier), else the last processed event time.  It
          never moves backwards on a later bounded call.
        """
        trace = self._trace
        if trace is None:
            return self._run(until)
        return trace.run_traced(self, until)

    def _run(self, until: Optional[int] = None) -> SimulationStats:
        """The reference hot loop (see :meth:`run` for the contract)."""
        heap = self._heap
        stats = self.stats
        processed_before = stats.events_processed
        pulses_before = stats.pulses_emitted
        maxq = stats.max_queue_depth
        wall_start = perf_counter()
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                time, _priority, _seq, element, port = heapq.heappop(heap)
                if time < self.now:
                    raise SimulationError(
                        f"causality violation: event at {time} fs before now={self.now} fs"
                    )
                if time > self.now:
                    # Pending = scheduled - processed (the just-popped event
                    # is still uncounted, so it is included) — the same
                    # formula the sealed kernel samples at the same instant.
                    depth = self._sequence - stats.events_processed
                    if depth > maxq:
                        maxq = depth
                self.now = time
                stats.events_processed += 1
                if stats.events_processed - processed_before > self.max_events:
                    raise SimulationError(
                        f"exceeded max_events={self.max_events}; "
                        "likely an oscillating netlist"
                    )
                element.handle(self, port, time)
        finally:
            wall_delta = perf_counter() - wall_start
            stats.max_queue_depth = maxq
            stats.wall_s += wall_delta
        horizon = self.now if until is None else max(self.now, until)
        stats.end_time = max(stats.end_time, horizon)
        delta = SimulationStats(
            stats.events_processed - processed_before,
            stats.pulses_emitted - pulses_before,
            stats.end_time, maxq, wall_delta,
        )
        for collector in _collectors.get():
            collector.merge(delta)
        return stats

    def _next_event_time(self) -> Optional[int]:
        """Timestamp of the earliest pending event, or None when idle."""
        return self._heap[0][0] if self._heap else None

    def _pending(self) -> int:
        """Pending event count as scheduled-minus-processed (O(1), both
        kernels agree on it at every distinct-time boundary)."""
        return self._sequence - self.stats.events_processed

    def reset(self) -> None:
        """Clear queue, clock, stats, and all circuit state."""
        self._heap.clear()
        self._sequence = 0
        self.now = 0
        self.stats = SimulationStats()
        self.circuit.reset()

    @property
    def pending_events(self) -> int:
        return len(self._heap)
