"""Conservative parallel execution of a sharded NoC circuit.

:class:`ShardSimulator` runs every shard of a
:class:`~repro.shard.partition.ShardPlan` in its own worker process (one
:class:`~repro.parallel.ProcessActor` per shard) and synchronizes them
with a windowed Chandy–Misra–Bryant scheme:

* the **lookahead** ``L`` is the plan's compile-time minimum cross-shard
  latency — ``min(NocLink latency + cut-wire delay)`` over all cuts, every
  term proven positive at construction (the same ``element.delay +
  wire.delay > 0`` argument behind the sealed kernel's monotonic fast
  path);
* each round, the coordinator takes ``tmin`` = the earliest pending event
  across all shards (including undelivered cross-shard pulses) and lets
  every shard run to the horizon ``tmin + L - 1``.  Any pulse a shard has
  not yet heard about originates from a link input at or after ``tmin``
  and therefore arrives at ``tmin + L`` or later — strictly beyond the
  horizon — so no shard ever processes an event out of order.  The
  horizon broadcast *is* the null message: one implicit "nothing earlier
  is coming" promise per shard per window.

The NoC links live beside the shard kernels, not in them.  A private
boundary recorder taps each cut's source port; after each window the
source worker runs each link's departure rule
(:meth:`~repro.cells.noc.NocLink.depart`) over the arrivals up to the
horizon and ships one departure list per link with the window result.
The coordinator re-injects each list into the destination shard as one
train (original wire delay applied) before its next window.  Because
every link's minimum latency exceeds the window width, injections always
land strictly after the horizon already simulated — the destination
kernel never rewinds.  No shard kernel holds a link cell, so a shard of
table cells keeps the sealed kernel's monotonic fast path.

On all probed ports the partitioned run is bit-identical to a monolithic
run of the same NoC-augmented circuit (the ``shard-differential`` oracle
in :mod:`repro.verify` enforces this continuously); merged event/pulse
totals and the end time match too.  ``max_queue_depth`` is the one
deliberately incomparable counter — per-shard queues cannot reproduce the
monolithic high-water mark — and is merged as a max over shards.

With ``jobs <= 1`` the same windowed algorithm runs in-process (no worker
processes, bit-identical results) — the cheap mode property tests use.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter
from typing import (
    AbstractSet,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cells.noc import NocLink
from repro.errors import ConfigurationError, SimulationError
from repro.parallel import ProcessActor, resolve_jobs
from repro.pulsesim import kernel as sealed_kernel
from repro.pulsesim.element import CellRole
from repro.pulsesim.export import import_netlist
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.probe import PulseRecorder
from repro.pulsesim.simulator import (
    SimulationStats,
    Simulator,
    active_collectors,
    quiet_stats,
)
from repro.shard.partition import (
    CutWire,
    ShardPlan,
    build_noc_description,
    planned_endpoint,
    shard_description,
)

#: Label prefix of the engine's private boundary recorders; excluded from
#: :meth:`ShardSimulator.recordings`.
BOUNDARY_PREFIX = "__shard_boundary__:"


def _freeze(value: Any) -> Any:
    return tuple(sorted(value.items())) if isinstance(value, dict) else value


class _OutLink:
    """A cut's NoC link, run beside its source shard's kernel."""

    __slots__ = ("link", "tapped", "read", "pending")

    def __init__(self, link: NocLink, tapped: List[int]):
        self.link = link
        #: The times a boundary recorder taps off the cut's source port,
        #: the link's arrival times (the ``source -> link.a`` wire has no
        #: delay); several cuts from one port share the list.
        self.tapped = tapped
        #: How many tapped times this link has taken into ``pending``.
        self.read = 0
        #: Taken arrivals not yet past a horizon, in time order.
        self.pending: List[int] = []


class _ShardHost:
    """One shard's kernel, living wherever the coordinator put it.

    Instantiated by :class:`~repro.parallel.ProcessActor` inside a worker
    process (or by :class:`_LocalHost` in-process); serves the command
    protocol the coordinator speaks: ``stimulus``, ``advance``,
    ``finish``, ``state``.

    The NoC links of the cuts leaving this shard live beside the kernel,
    not in it: the circuit is built without the link cells and their
    ``source -> link.a`` wires (whose delay is always 0), a private
    recorder taps each cut's source port, and after every window each
    link's departure rule (:meth:`~repro.cells.noc.NocLink.depart`) runs
    over the tapped arrivals up to the horizon, in time order; later
    arrivals carry over to the next window.  Each processed arrival
    counts as one event and each departure as one pulse, so merged totals
    still equal a monolithic run of the NoC circuit; link arrivals do not
    count against a window's ``max_events``.
    """

    def __init__(
        self,
        description: Dict[str, Any],
        links: Sequence[Tuple[str, str]],
        kernel: Optional[str] = None,
        max_events: int = 50_000_000,
    ):
        names = {cell["name"] for cell in description["cells"]}
        noc = {name for name, _source in links}
        params = {
            cell["name"]: cell["params"]
            for cell in description["cells"]
            if cell["name"] in noc
        }
        self.circuit = import_netlist(dict(
            description,
            cells=[c for c in description["cells"] if c["name"] not in noc],
            wires=[
                w for w in description["wires"]
                if planned_endpoint(w["to"], names)[0] not in noc
            ],
        ))
        taps: Dict[str, List[int]] = {}
        self._links: List[_OutLink] = []
        for name, source in links:
            if source not in taps:
                cell, port = planned_endpoint(source, self.circuit._names)
                recorder = PulseRecorder(BOUNDARY_PREFIX + source)
                self.circuit.probe(self.circuit[cell], port, probe=recorder)
                taps[source] = recorder.times
            self._links.append(
                _OutLink(NocLink(name, **params[name]), taps[source])
            )
        self._link_events = 0
        self._link_pulses = 0
        self._link_now = 0
        self.circuit.seal()
        self.sim = Simulator(self.circuit, max_events=max_events, kernel=kernel)

    def __call__(self, command: str, payload: Any) -> Any:
        return getattr(self, "_cmd_" + command)(payload)

    def _cmd_stimulus(
        self, payload: Sequence[Tuple[str, str, Sequence[int]]]
    ) -> Optional[int]:
        for cell, port, times in payload:
            self.sim.schedule_train(self.circuit[cell], port, times)
        return self.sim._next_event_time()

    def _cmd_advance(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        for cell, port, times in payload["inject"]:
            self.sim.schedule_train(self.circuit[cell], port, times)
        until = payload["until"]
        # Windows stay out of any enclosing capture_stats() collector; the
        # coordinator feeds the merged totals once after the run.
        with quiet_stats():
            self.sim.run(until=until)
        nxt = self.sim._next_event_time()
        departures: Dict[str, List[int]] = {}
        for cut in self._links:
            pending = cut.pending
            if len(cut.tapped) > cut.read:
                pending += cut.tapped[cut.read:]
                pending.sort()  # a cell may emit ahead of its input, or out of order
                cut.read = len(cut.tapped)
            due = bisect_right(pending, until)  # links imply a bounded horizon
            if due:
                out = [t for t in map(cut.link.depart, pending[:due]) if t is not None]
                self._link_events += due
                self._link_pulses += len(out)
                self._link_now = max(self._link_now, pending[due - 1])
                del pending[:due]
                if out:
                    departures[cut.link.name] = out
            if pending and (nxt is None or pending[0] < nxt):
                nxt = pending[0]
        return {"next": nxt, "departures": departures}

    def _cmd_finish(self, payload: Any) -> Dict[str, Any]:
        stats = self.sim.stats
        recordings: Dict[str, List[int]] = {}
        for taps in self.circuit._taps.values():
            for tap in taps:
                label = getattr(tap.probe, "label", "") or ""
                times = getattr(tap.probe, "times", None)
                if times is None or label.startswith(BOUNDARY_PREFIX):
                    continue
                recordings[label] = list(times)
        links = [
            element
            for element in self.circuit.elements
            if CellRole.NOC in getattr(element, "ROLES", frozenset())
        ]
        links.extend(cut.link for cut in self._links)
        drops = {
            link.name: int(getattr(link, "drops", 0))
            for link in sorted(links, key=lambda link: link.name)
        }
        return {
            "recordings": recordings,
            "events": stats.events_processed + self._link_events,
            "pulses": stats.pulses_emitted + self._link_pulses,
            "max_queue_depth": stats.max_queue_depth,
            "wall_s": stats.wall_s,
            "now": max(self.sim.now, self._link_now),
            "drops": drops,
        }

    def _cmd_state(self, payload: Sequence[str]) -> Dict[str, tuple]:
        attrs = tuple(payload)
        elements = list(self.circuit.elements)
        elements.extend(cut.link for cut in self._links)
        return {
            element.name: tuple(
                _freeze(getattr(element, attr, None)) for attr in attrs
            )
            for element in elements
        }


class _LocalHost:
    """In-process stand-in for :class:`~repro.parallel.ProcessActor`.

    Same submit/result surface, lazy FIFO execution — the ``jobs <= 1``
    mode runs the identical windowed algorithm with zero process cost
    (and bit-identical results, since the algorithm never depends on
    where a shard's kernel lives).
    """

    def __init__(self, host: _ShardHost):
        self._host = host
        self._queue: List[Tuple[str, Any]] = []

    def submit(self, command: str, payload: Any = None) -> None:
        self._queue.append((command, payload))

    def result(self) -> Any:
        command, payload = self._queue.pop(0)
        return self._host(command, payload)

    def call(self, command: str, payload: Any = None) -> Any:
        self.submit(command, payload)
        return self.result()

    def close(self) -> None:
        self._queue.clear()


_Host = Union[ProcessActor, _LocalHost]


class ShardSimulator:
    """Partitioned, conservatively synchronized run of a sharded circuit.

    Args:
        circuit: The *original* (pre-NoC) circuit the plan was made for.
        plan: A :class:`~repro.shard.partition.ShardPlan` for ``circuit``.
        jobs: Worker budget — ``"auto"``/``None`` resolve through
            :func:`repro.parallel.resolve_jobs`.  With the resolved value
            above 1 every shard gets its own worker process; at 1 the
            same algorithm runs in-process.
        kernel: Per-shard kernel choice, as for
            :class:`~repro.pulsesim.simulator.Simulator`.
        max_events: Per-window event budget for each shard kernel.  The
            NoC links run beside the kernels, so their arrivals do not
            count against it.

    The engine is single-shot: build, optionally ``schedule_input`` /
    ``schedule_train``, ``run()`` once, then read ``stats`` /
    :meth:`recordings` / :meth:`state` / :meth:`noc_drops`.  Use as a
    context manager (or call :meth:`close`) to reap worker processes.
    """

    def __init__(
        self,
        circuit: Circuit,
        plan: ShardPlan,
        jobs: Union[int, str, None] = None,
        kernel: Optional[str] = None,
        max_events: int = 50_000_000,
    ):
        self.plan = plan
        self.jobs = resolve_jobs(jobs)
        description = build_noc_description(circuit, plan)
        self._inputs: Dict[str, AbstractSet[str]] = {
            cell["name"]: frozenset(cell["inputs"])
            for cell in description["cells"]
        }
        self._owner: Dict[str, int] = dict(plan.assignment)
        self._cut_by_link: Dict[str, CutWire] = {}
        self._sink_of: Dict[str, Tuple[str, str]] = {}
        cell_names = frozenset(plan.assignment)
        links: List[List[Tuple[str, str]]] = [[] for _ in range(plan.num_shards)]
        for cut in plan.cuts:
            self._owner[cut.link] = cut.source_shard
            self._cut_by_link[cut.link] = cut
            self._sink_of[cut.link] = planned_endpoint(cut.sink, cell_names)
            links[cut.source_shard].append((cut.link, cut.source))
        self._stimulus: List[List[Tuple[str, str, List[int]]]] = [
            [] for _ in range(plan.num_shards)
        ]
        if self.jobs > 1:
            # Load the native loop here, so that the forked workers inherit
            # it instead of each importing the kernel and loading it again.
            sealed_kernel._native_loop()
        self._hosts: List[_Host] = []
        for shard in range(plan.num_shards):
            piece = shard_description(description, plan, shard)
            if self.jobs > 1:
                self._hosts.append(
                    ProcessActor(
                        _ShardHost, piece, links[shard], kernel, max_events
                    )
                )
            else:
                self._hosts.append(
                    _LocalHost(
                        _ShardHost(piece, links[shard], kernel, max_events)
                    )
                )
        self._ran = False
        self._closed = False
        self.stats: Optional[SimulationStats] = None
        self.now = 0
        #: Synchronization windows executed by :meth:`run`.
        self.windows = 0
        self._recordings: Dict[str, List[int]] = {}
        self._drops: Dict[str, int] = {}

    # -- scheduling ----------------------------------------------------------
    def schedule_input(self, cell: str, port: str, time: int) -> None:
        """Buffer one external stimulus pulse for ``cell.port``."""
        self.schedule_train(cell, port, (time,))

    def schedule_train(
        self, cell: str, port: str, times: Sequence[int]
    ) -> None:
        """Buffer a stimulus train; delivered to the owning shard at
        :meth:`run`."""
        if self._ran:
            raise SimulationError(
                "ShardSimulator is single-shot; cannot schedule after run()"
            )
        shard = self._owner.get(cell)
        if shard is None:
            raise ConfigurationError(
                f"no cell named {cell!r} in plan for "
                f"{self.plan.circuit_name!r}"
            )
        if port not in self._inputs[cell]:
            raise ConfigurationError(
                f"cell {cell!r} has no input port {port!r}"
            )
        times = list(times)
        for time in times:
            if time < 0:
                raise SimulationError(
                    f"cannot schedule pulse at negative time {time}"
                )
        self._stimulus[shard].append((cell, port, times))

    # -- execution -----------------------------------------------------------
    def _broadcast(
        self, command: str, payloads: Optional[Sequence[Any]] = None
    ) -> List[Any]:
        if payloads is None:
            payloads = [None] * len(self._hosts)
        for host, payload in zip(self._hosts, payloads):
            host.submit(command, payload)
        return [host.result() for host in self._hosts]

    def run(self, until: Optional[int] = None) -> SimulationStats:
        """Run the partitioned system to completion (or through ``until``).

        Returns the merged :class:`SimulationStats`: summed event/pulse
        totals, ``end_time`` = the latest shard event time (so it matches
        a monolithic unbounded run), ``max_queue_depth`` = max over shard
        queues (not comparable to the monolithic value), ``wall_s`` =
        coordinator wall-clock including synchronization.  Cross-shard
        pulses arriving strictly after ``until`` are discarded rather
        than left queued (the engine is single-shot).
        """
        if self._ran:
            raise SimulationError("ShardSimulator.run() is single-shot")
        self._ran = True
        wall_start = perf_counter()
        shards = self.plan.num_shards
        lookahead = self.plan.lookahead_fs
        nexts: List[Optional[int]] = self._broadcast("stimulus", self._stimulus)
        # Per sink shard, one ``(cell, port, times)`` train per link that
        # departed, in reply order and link order.
        pending: List[List[Tuple[str, str, List[int]]]] = [
            [] for _ in range(shards)
        ]
        while True:
            candidates = [time for time in nexts if time is not None]
            candidates.extend(
                times[0] for batch in pending for (_c, _p, times) in batch
            )
            if not candidates:
                break
            tmin = min(candidates)
            if until is not None and tmin > until:
                break
            if lookahead is None:
                horizon = until
            else:
                horizon = tmin + lookahead - 1
                if until is not None:
                    horizon = min(horizon, until)
            payloads = [
                {"until": horizon, "inject": pending[k]} for k in range(shards)
            ]
            pending = [[] for _ in range(shards)]
            self.windows += 1
            for k, reply in enumerate(self._broadcast("advance", payloads)):
                nexts[k] = reply["next"]
                for link, times in reply["departures"].items():
                    cut = self._cut_by_link[link]
                    cell, port = self._sink_of[link]
                    delay = cut.delay_fs
                    pending[cut.sink_shard].append(
                        (cell, port, [time + delay for time in times])
                    )
        finals = self._broadcast("finish")
        merged = SimulationStats()
        for final in finals:
            merged.events_processed += final["events"]
            merged.pulses_emitted += final["pulses"]
            merged.max_queue_depth = max(
                merged.max_queue_depth, final["max_queue_depth"]
            )
            merged.end_time = max(merged.end_time, final["now"])
            for label, times in final["recordings"].items():
                if label in self._recordings:
                    raise ConfigurationError(
                        f"probe label {label!r} appears on more than one "
                        "shard; give the recorders distinct labels"
                    )
                self._recordings[label] = times
            self._drops.update(final["drops"])
        self.now = merged.end_time
        if until is not None:
            merged.end_time = max(merged.end_time, until)
        merged.wall_s = perf_counter() - wall_start
        for collector in active_collectors():
            collector.merge(merged)
        self.stats = merged
        return merged

    # -- results -------------------------------------------------------------
    def recordings(self) -> Dict[str, List[int]]:
        """Pulse timelines of every user probe, keyed by recorder label
        (the engine's boundary recorders are excluded)."""
        self._require_ran("recordings")
        return {label: list(times) for label, times in self._recordings.items()}

    def noc_drops(self) -> Dict[str, int]:
        """FIFO-overflow drop count per NoC link."""
        self._require_ran("noc_drops")
        return dict(self._drops)

    def state(self, attrs: Sequence[str]) -> Dict[str, tuple]:
        """Internal cell state keyed by element name, merged over shards
        (same shape as the verify harness's ``state_snapshot``)."""
        self._require_ran("state")
        if self._closed:
            raise SimulationError("ShardSimulator is closed")
        merged: Dict[str, tuple] = {}
        for piece in self._broadcast("state", [list(attrs)] * len(self._hosts)):
            merged.update(piece)
        return merged

    def _require_ran(self, what: str) -> None:
        if not self._ran:
            raise SimulationError(f"call run() before {what}()")

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Reap worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for host in self._hosts:
            host.close()

    def __enter__(self) -> "ShardSimulator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
