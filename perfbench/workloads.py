"""The four workloads.

Each workload sets itself up (imports, boot, compile, plan and one
warm-up op), runs timed phases of closed-loop operations, and checks
every answer against :mod:`checks`.  A phase returns the per-op
latencies; correctness is settled after the clock stops, so reference
computations never count as op or setup time.

The op of each workload:

* ``serve_interactive`` -- one ``dpu.dot`` request over HTTP, from send
  to the full response read, 2 callers on 2 keep-alive connections
  against ``python -m repro.serve`` (CLI defaults, ephemeral port),
  sending in lockstep rounds.
* ``serve_burst`` -- 64 distinct ``dpu.dot`` requests submitted at once
  through ``ServeService.handle`` in-process, first submit to last
  response.
* ``synth_compile`` -- one ``usfq-dataflow/1`` document through
  ``compile_json``, ``lint_program``, ``analyze_program`` and
  ``CompiledProgram.simulate``.
* ``shard_fabric`` -- one K=2 sharded run of the wide fabric, from
  ``ShardSimulator`` construction to recordings collected.

Ops are timed by the wall clock.  On a virtual machine the hypervisor
may take CPU time from the host's vCPUs (the ``steal`` column of
``/proc/stat``), in bursts of a fraction of a second; an op that ran
through such a burst measures the neighbours, not the program.  A phase
therefore reads the host's CPU counters every :data:`STEAL_TICK_S`
between ops, measures for longer by the time spent in readings above
:data:`MAX_STEAL` (up to :data:`MAX_STRETCH` times its length), and
:meth:`Phase.clean` leaves the ops and completion intervals that
overlap such readings out of the timing figures, though never more than
three quarters of them.  Every op is checked either way.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import json
import math
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import checks
import gen
import layers
from tracer import Span, Tracer, load_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Seconds between two readings of the host's CPU counters in a phase.
STEAL_TICK_S = 0.25
#: Highest share of the host's CPU time the hypervisor may have taken
#: around an op for the op to count in the timing figures.
MAX_STEAL = 0.05
#: A phase stops after ``seconds`` plus the time lost to steal, and at
#: the latest after this multiple of ``seconds``.
MAX_STRETCH = 1.5
#: The timing figures use at least this share of a phase's ops (and at
#: least 5), the least stolen ones, even if that admits more than
#: MAX_STEAL; the run's detail line gives the steal share admitted.
MIN_CLEAN_SHARE = 0.25


def now() -> float:
    return time.perf_counter()


def proc_status_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a process in MB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def tree_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process, of the children it has
    reaped and of its live descendants."""
    ticks = 0
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            with open(f"/proc/{current}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            ticks += sum(int(field) for field in fields[11:15])
            for tid in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{tid}/children") as handle:
                    stack.extend(int(child) for child in handle.read().split())
        except OSError:
            pass  # the process ended in between
    return ticks / os.sysconf("SC_CLK_TCK")


def cpu_counters() -> Tuple[int, int]:
    """Steal and total CPU ticks of the host since boot (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = [int(field) for field in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class Phase:
    """What one timed phase saw: op times, failures and the host's steal."""

    def __init__(self, seconds: float, cpu_pid: Optional[int] = None) -> None:
        self.seconds = seconds
        #: The process whose CPU (with its descendants') the phase counts.
        self.cpu_pid = os.getpid() if cpu_pid is None else cpu_pid
        self._cpu0 = tree_cpu_s(self.cpu_pid)
        self.started = time.perf_counter_ns()
        #: ``time.perf_counter_ns()`` at the start and the end of each op.
        self.starts: List[int] = []
        self.ends: List[int] = []
        #: ``(perf_counter_ns, steal ticks, total ticks)`` readings.
        self.counters: List[Tuple[int, int, int]] = []
        #: Wall seconds between readings with more than MAX_STEAL stolen.
        self.stolen_s = 0.0
        self.failures: List[str] = []
        self.attempted = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.spans: List[Span] = []
        self.roots: List[Span] = []
        #: Indices of ops with a failed check.
        self.bad_ops: set = set()
        self._read_counters(self.started)

    def _read_counters(self, at: int) -> None:
        steal, total = cpu_counters()
        if self.counters:
            then, steal0, total0 = self.counters[-1]
            if total > total0 and (steal - steal0) / (total - total0) > MAX_STEAL:
                self.stolen_s += (at - then) / 1e9
        self.counters.append((at, steal, total))

    def measuring(self) -> bool:
        """Whether to start another op (always, before the first one)."""
        at = time.perf_counter_ns()
        if at - self.counters[-1][0] >= STEAL_TICK_S * 1e9:
            self._read_counters(at)
        limit = min(self.seconds + self.stolen_s, MAX_STRETCH * self.seconds)
        return not self.ends or (at - self.started) / 1e9 < limit

    def record(self, start_ns: int, end_ns: int) -> int:
        """Book one timed op; returns its index."""
        self.starts.append(start_ns)
        self.ends.append(end_ns)
        return len(self.ends) - 1

    def fail(self, op: int, message: str) -> None:
        self.failures.append(message)
        self.bad_ops.add(op)

    def finish(self) -> None:
        """Stop the phase's clocks; call once the last op has ended."""
        at = time.perf_counter_ns()
        self._read_counters(at)
        self.wall_s = (at - self.started) / 1e9
        self.cpu_s = tree_cpu_s(self.cpu_pid) - self._cpu0
        self._times = [reading[0] for reading in self.counters]

    def steal_share(self, start: int, end: int) -> float:
        """Share of the host's CPU time stolen between the readings (of a
        finished phase) that bracket ``[start, end]``."""
        lo = max(bisect.bisect_right(self._times, start) - 1, 0)
        hi = min(bisect.bisect_left(self._times, end), len(self._times) - 1)
        total = self.counters[hi][2] - self.counters[lo][2]
        return (self.counters[hi][1] - self.counters[lo][1]) / total if total else 0.0

    def clean(self) -> Tuple[List[int], List[Tuple[int, float]], float]:
        """The ops to time, and the completion intervals to rate.

        Returns the indices of the least stolen ops (see
        :meth:`_least_stolen`) in completion order; the ``(op, seconds)``
        intervals from each completion (or the phase's start) to the next,
        chosen likewise; and the highest steal share admitted for ops.
        """
        order = sorted(range(len(self.ends)), key=self.ends.__getitem__)
        intervals = []
        previous = self.started
        for op in order:
            intervals.append((op, previous, self.ends[op]))
            previous = self.ends[op]
        ops, limit = self._least_stolen(
            [(op, self.starts[op], self.ends[op]) for op in order])
        intervals, _limit = self._least_stolen(intervals)
        return ([op for op, _begin, _end in ops],
                [(op, (end - begin) / 1e9) for op, begin, end in intervals], limit)

    def _least_stolen(self, spans: List[Tuple[int, int, int]]) -> Tuple[List, float]:
        """The ``(op, begin, end)`` spans with at most MAX_STEAL stolen, or
        with at most the steal share that admits MIN_CLEAN_SHARE of them
        (and at least 5), in their order; and that share."""
        shares = [self.steal_share(begin, end) for _op, begin, end in spans]
        floor = min(len(spans), max(5, math.ceil(MIN_CLEAN_SHARE * len(spans))))
        limit = max(MAX_STEAL, sorted(shares)[floor - 1])
        return [span for span, share in zip(spans, shares) if share <= limit], limit

    def latencies_ms(self, ops: Optional[List[int]] = None) -> List[float]:
        ops = range(len(self.ends)) if ops is None else ops
        return [(self.ends[op] - self.starts[op]) / 1e6 for op in ops]


class OpClock:
    """Wall start and end (``perf_counter_ns``) of one op."""

    __slots__ = ("start", "end")

    def stop(self) -> None:
        """End the op here, before the ``with`` block ends."""
        self.end = time.perf_counter_ns()


@contextlib.contextmanager
def timed_op(result: Phase, tracer: Optional[Tracer], name: str, op: str,
             track: str) -> Iterator[OpClock]:
    """Time one in-process op into ``result`` (and, when tracing, record
    its root span)."""
    root = token = None
    if tracer is not None:
        root = tracer.open(name, parent=None, op=op, track=track)
        token = tracer.activate(root)
    clock = OpClock()
    clock.end = None
    clock.start = time.perf_counter_ns()
    try:
        yield clock
    finally:
        if clock.end is None:
            clock.stop()
        if root is not None:
            tracer.deactivate(token)
            tracer.close(root, end=clock.end)
            result.roots.append(root)
    result.record(clock.start, clock.end)


class Workload:
    name = ""
    #: Fixed tail percentile; chosen so that >= 10 samples lie beyond it.
    tail_q = 0.95

    def __init__(self, seed: int):
        self.seed = seed
        #: Wall seconds of setup spent on the benchmark's own inputs and
        #: reference answers, which ``setup_s`` leaves out.
        self.reference_s = 0.0
        self.exact: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def phase(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return proc_status_mb(os.getpid())

    def close(self) -> None:
        pass


# -- serve ---------------------------------------------------------------------
def _src_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def http_request(body: bytes) -> bytes:
    return (b"POST /v1/compute HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


class _Server:
    """One ``repro.serve`` process on an ephemeral port."""

    def __init__(self, traced: bool):
        self.spans_path = os.path.join(OUT, f"server-spans-{os.getpid()}.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                    self.spans_path, "--port", "0"]
        else:
            argv = [sys.executable, "-m", "repro.serve", "--port", "0"]
        self.started = now()
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                        env=_src_env(), cwd=ROOT)
        ready, _, _ = select.select([self.process.stdout], [], [], 60)
        line = self.process.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class ServeInteractive(Workload):
    name = "serve_interactive"
    tail_q = 0.95
    callers = 2

    def setup(self) -> None:
        self.server = self._boot(traced=False)

    def _boot(self, traced: bool) -> _Server:
        server = _Server(traced)
        status, _body = asyncio.run(self._one(server.port, gen.warmup_body(self.seed)))
        if status != 200:
            server.stop()
            raise RuntimeError(f"warm-up request failed with HTTP {status}")
        return server

    @staticmethod
    async def _one(port: int, body: bytes) -> Tuple[int, bytes]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(http_request(body))
            await writer.drain()
            return await read_response(reader)
        finally:
            writer.close()
            await writer.wait_closed()

    def phase(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        if tracer is not None:
            self.server.stop()
            self.server = self._boot(traced=True)
        records: List[Tuple] = []
        result = Phase(seconds, cpu_pid=self.server.process.pid)

        async def rounds() -> None:
            # Each round both callers send at once and wait for both answers,
            # so a round's misses always share one batch window.  Left to
            # drift, two closed-loop callers flip between that and taking
            # turns on the one executor thread, run to run.
            conns = [await asyncio.open_connection("127.0.0.1", self.server.port)
                     for _ in range(self.callers)]
            streams = [gen.interactive_requests(self.seed, index)
                       for index in range(self.callers)]
            broken = False  # a dropped connection ends the phase

            async def request(index: int, number: int) -> None:
                nonlocal broken
                first, operands = next(streams[index])
                reader, writer = conns[index]
                body = gen.dpu_body(operands)
                sent = time.perf_counter_ns()
                try:
                    writer.write(http_request(body))
                    await writer.drain()
                    status, answer = await read_response(reader)
                except Exception as exc:  # a broken connection is a failed op
                    status, answer, broken = 0, repr(exc).encode(), True
                done = time.perf_counter_ns()
                # Op indices follow arrival, as the records do.
                result.record(sent, done)
                records.append((index, number, first, operands, body, status,
                                answer, sent, done))

            try:
                number = 0
                while not broken and result.measuring():
                    await asyncio.gather(*(request(index, number)
                                           for index in range(self.callers)))
                    number += 1
            finally:
                for _reader, writer in conns:
                    writer.close()
                    with contextlib.suppress(OSError):
                        await writer.wait_closed()

        asyncio.run(rounds())
        result.finish()
        self.rss_mb = proc_status_mb(self.server.process.pid)
        unique = list(dict.fromkeys(record[3] for record in records))
        expected = dict(zip(unique, checks.dpu_expected_counts(unique)))
        firsts: Dict[Tuple[int, int], bytes] = {}
        for index, number, first, operands, body, status, answer, *_ in records:
            if number == first:
                firsts[(index, first)] = answer
        for op, record in enumerate(records):
            index, number, first, operands, body, status, answer, sent, done = record
            result.attempted += 1
            where = f"caller {index} request {number}"
            if status != 200:
                result.fail(op, f"{where}: HTTP {status} {answer[:80]!r}")
            elif not checks.dpu_response_ok(answer, expected[operands]):
                result.fail(op, f"{where}: {answer[:80]!r}, expected count "
                                f"{expected[operands]}")
            elif number != first and answer != firsts.get((index, first)):
                result.fail(op, f"{where}: repeat of {first} differs from "
                                "the first answer")
        if tracer is not None:
            self.server.stop()
            server_spans = load_spans(self.server.spans_path, sid_offset=1 << 40)
            os.remove(self.server.spans_path)
            self._join_client(tracer, records, server_spans, result)
        return result

    def _join_client(self, tracer: Tracer, records: List[Tuple],
                     server_spans: List[Span], result: Phase) -> None:
        """Root each request at a client span and hang the server's handle
        span (matched by body and time) under it."""
        handles: Dict[str, List[Span]] = {}
        for span in server_spans:
            if span.name == "serve.handle":
                handles.setdefault(span.attrs["key"], []).append(span)
        self.client_ms: Dict[int, float] = {}
        for index, number, first, operands, body, status, answer, sent, done in records:
            root = tracer.open("client.request", parent=None, op=f"c{index}.{number}",
                               track=f"caller {index}", start=sent)
            tracer.close(root, end=done)
            result.roots.append(root)
            for span in handles.get(layers.body_key(body), []):
                if sent <= span.start and span.end <= done and span.parent is None:
                    span.parent = root
                    self.client_ms[span.sid] = root.ms
                    break
        for span in server_spans:
            if span.parent is not None and span.track == 0:
                top = span
                while top.parent is not None:
                    top = top.parent
                span.op, span.track = top.op, top.track
        result.spans = tracer.spans + server_spans
        # Each caller's first fresh requests by stream position, not by
        # arrival, so the summed lane events repeat exactly run to run.
        per_caller = gen.BURST // self.callers
        self.first_keys = [
            layers.operand_key(*record[3]) for record in records
            if record[1] == record[2] and record[1] < per_caller
        ]

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()


class ServeBurst(Workload):
    name = "serve_burst"
    tail_q = 0.90

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._start()

    def _start(self) -> None:
        """A fresh service (empty cache) warmed by one burst of its own.

        The traced phase starts another one after the wrappers are in, as
        the batcher keeps the tier's ``execute`` it was built with.
        """
        from repro.serve.server import ServeConfig, ServeService

        self.close_service()
        self.service = ServeService(ServeConfig())
        warm = [gen.dpu_body(ops) for ops in next(gen.bursts(self.seed, "warmup"))]
        statuses = self.loop.run_until_complete(self._burst(warm))
        if any(status != 200 for status, _ in statuses):
            raise RuntimeError("warm-up burst failed")

    async def _burst(self, bodies: List[bytes]) -> List[Tuple[int, bytes]]:
        results = await asyncio.gather(*(
            self.service.handle("POST", "/v1/compute", body) for body in bodies),
            return_exceptions=True)
        return [(0, repr(reply).encode()) if isinstance(reply, Exception)
                else (reply[0], reply[2]) for reply in results]

    def phase(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        if tracer is not None:
            self._start()
        result = Phase(seconds)
        for number, burst in enumerate(gen.bursts(self.seed)):
            if not result.measuring():
                break
            bodies = [gen.dpu_body(ops) for ops in burst]
            with timed_op(result, tracer, "bench.burst", f"burst{number}", "burst"):
                replies = self.loop.run_until_complete(self._burst(bodies))
            # Checked between bursts, off the clock, so that nothing the
            # benchmark keeps grows with the number of bursts.
            expected = checks.dpu_expected_counts(burst)
            for lane, ((status, payload), count) in enumerate(zip(replies, expected)):
                result.attempted += 1
                if status != 200 or not checks.dpu_response_ok(payload, count):
                    result.fail(number, f"burst {number} lane {lane}: HTTP {status} "
                                        f"{payload[:80]!r}, expected count {count}")
            if number == 0:
                self.first_keys = [layers.operand_key(*ops) for ops in burst]
        result.finish()
        if tracer is not None:
            result.spans = tracer.spans
        return result

    def close_service(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
            self.service = None

    def close(self) -> None:
        self.close_service()
        loop = getattr(self, "loop", None)
        if loop is not None:
            loop.close()


# -- synth ---------------------------------------------------------------------
class SynthCompile(Workload):
    name = "synth_compile"
    tail_q = 0.99

    def setup(self) -> None:
        import repro.synth.api as api

        self.api = api
        started = now()
        self.docs = gen.spec_documents(self.seed)
        self.expected = [checks.dataflow_levels(json.loads(d)) for d in self.docs]
        self.reference_s = now() - started
        self._op(self.docs[0])

    def _op(self, doc: str) -> Tuple[Any, Any, Any, Any]:
        api = self.api
        program = api.compile_json(doc)
        lint = api.lint_program(program)
        analysis = api.analyze_program(program)
        return program, lint, analysis, program.simulate()

    def phase(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        result = Phase(seconds)
        exact = dict.fromkeys(("synth.netlist_jj", "synth.netlist_latency_ns",
                               "analyze.mergers_proved", "analyze.mergers_unproved",
                               "pulsesim.sealed.events"), 0.0)
        passes = 0
        # The first pass runs in full: the exact sums are over the whole mix.
        while passes == 0 or result.measuring():
            for index, doc in enumerate(self.docs):
                if not result.measuring() and passes:
                    break
                with timed_op(result, tracer, "bench.spec", f"p{passes}.s{index}",
                              "spec"):
                    try:
                        program, lint, analysis, outcome = self._op(doc)
                    except Exception as exc:  # a crash is a failed op
                        error = exc
                    else:
                        error = None
                result.attempted += 1
                op_index = len(result.ends) - 1
                if error is not None:
                    result.fail(op_index, f"spec {index}: {error!r}")
                    continue
                stats = analysis.report.stats
                failures = checks.program_failures(
                    outcome.levels, self.expected[index], len(lint.errors),
                    outcome.collisions)
                for failure in failures:
                    result.fail(op_index, f"spec {index}: {failure}")
                if passes == 0:
                    exact["synth.netlist_jj"] += program.stats["jj"]
                    exact["synth.netlist_latency_ns"] += (
                        program.stats["epoch_fs"] + program.stats["latency_fs"]) / 1e6
                    exact["analyze.mergers_proved"] += stats["mergers_proved"]
                    exact["analyze.mergers_unproved"] += (
                        stats["mergers_checked"] - stats["mergers_proved"])
                    exact["pulsesim.sealed.events"] += outcome.events
            passes += 1
        result.finish()
        self.exact = exact
        if tracer is not None:
            result.spans = tracer.spans
            self.first_pass_ops = {f"p0.s{i}" for i in range(len(self.docs))}
        return result


# -- shard ---------------------------------------------------------------------
#: High-lookahead link: 250 ps per hop keeps the window count near 70.
LINK = dict(serialization_fs=1_000, hop_latency_fs=249_000, fifo_depth=192)
SHARDS = 2


def build_fabric() -> Tuple[Any, List[Any]]:
    """COLUMNS deep JTL columns feeding an IdealMerger reduction tree."""
    from repro.cells.interconnect import IdealMerger, Jtl
    from repro.pulsesim import Circuit

    circuit = Circuit(f"wide{gen.COLUMNS}x{gen.DEPTH}")
    heads, tails = [], []
    for column in range(gen.COLUMNS):
        stage = circuit.add(Jtl(f"col{column}_0"))
        heads.append(stage)
        for depth in range(1, gen.DEPTH):
            nxt = circuit.add(Jtl(f"col{column}_{depth}"))
            circuit.connect(stage, "q", nxt, "a", delay=500)
            stage = nxt
        tails.append((stage, "q"))
    level = 0
    while len(tails) > 1:
        merged = []
        for pair in range(0, len(tails), 2):
            merger = circuit.add(IdealMerger(f"m{level}_{pair // 2}"))
            circuit.connect(*tails[pair], merger, "a", delay=500)
            circuit.connect(*tails[pair + 1], merger, "b", delay=500)
            merged.append((merger, "q"))
        tails = merged
        level += 1
    circuit.probe(*tails[0])
    return circuit, heads


class ShardFabric(Workload):
    name = "shard_fabric"
    #: 11 to 17 runs fit in a phase, too few for any percentile above the
    #: median to have 10 samples beyond it: the tail is the p90 run by
    #: nearest rank, the second slowest.
    tail_q = 0.90

    def setup(self) -> None:
        import repro.shard as shard

        self.shard = shard
        self.trains = gen.shard_stimulus(self.seed)
        self.circuit, self.heads = build_fabric()
        self._plan()
        self.worker_rss_mb = 0.0
        self._op()

    def _plan(self) -> None:
        self.plan = self.shard.plan_partition(
            self.circuit, SHARDS, link=self.shard.LinkSpec(**LINK),
            entry_points=[(head, "a") for head in self.heads])

    def _op(self, clock: Optional[OpClock] = None) -> Tuple[Any, int, Any]:
        """One sharded run; the clock stops once the recordings are in,
        before the workers are reaped."""
        with self.shard.ShardSimulator(self.circuit, self.plan, jobs=SHARDS) as sim:
            for head, times in zip(self.heads, self.trains):
                sim.schedule_train(head.name, "a", times)
            stats = sim.run()
            recordings = sim.recordings()
            if clock is not None:
                clock.stop()
            workers = multiprocessing.active_children()
            drops = sum(sim.noc_drops().values())
            rss = sum(proc_status_mb(worker.pid) for worker in workers)
            self.worker_rss_mb = max(self.worker_rss_mb, rss)
            self.windows = sim.windows
            return recordings, drops, stats

    def phase(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        if tracer is not None:
            self._plan()  # the same plan again, now with its span recorded
        runs = []
        result = Phase(seconds)
        first: Optional[Dict[str, List[int]]] = None
        while result.measuring():
            with timed_op(result, tracer, "bench.shard_run", f"run{len(runs)}",
                          "coordinator") as clock:
                try:
                    recordings, drops, stats = self._op(clock)
                except Exception as exc:  # a crash is a failed op
                    recordings, drops, stats = exc, 0, None
            # Keep one copy of the recordings and only runs that differ from
            # it, so memory does not grow with the number of runs.
            if first is None and stats is not None:
                first = recordings
            elif recordings == first:
                recordings = first
            runs.append((recordings, drops, stats and stats.events_processed,
                         (clock.end - clock.start) / 1e9))
        result.finish()
        self.parent_rss_mb = proc_status_mb(os.getpid())
        reference = self.reference()
        for number, (recordings, drops, _events, _wall) in enumerate(runs):
            result.attempted += 1
            if isinstance(recordings, Exception):
                result.fail(number, f"run {number}: {recordings!r}")
                continue
            failures = checks.recordings_failures(recordings, reference, drops)
            for failure in failures:
                result.fail(number, f"run {number}: {failure}")
        good = [run for run in runs if run[2] is not None]
        self.exact = {
            "shard.windows": float(self.windows),
            "shard.cuts": float(len(self.plan.cuts)),
            "shard.lookahead_fs": float(self.plan.lookahead_fs),
            "shard.noc_drops": float(sum(run[1] for run in good)),
            "shard.sim_events_per_s": layers.median(run[2] / run[3] for run in good),
            "pulsesim.sealed.events": float(self.reference_events),
        }
        for number, run in enumerate(runs):
            if run[2] is not None and run[2] != self.reference_events:
                result.fail(number, f"run {number}: {run[2]} events, "
                                    f"monolithic run {self.reference_events}")
        if tracer is not None:
            result.spans = tracer.spans
        return result

    def reference(self) -> Dict[str, List[int]]:
        """One monolithic sealed run of the same NoC-augmented circuit."""
        from repro.pulsesim.export import import_netlist
        from repro.pulsesim.simulator import Simulator

        description = self.shard.build_noc_description(self.circuit, self.plan)
        probes = description["probes"]
        mono = import_netlist(dict(description, probes=[], probe_count=0))
        recorders = {}
        for probe in probes:
            cell, port = probe["port"].rsplit(".", 1)
            recorders[probe["label"]] = mono.probe(mono[cell], port)
        sim = Simulator(mono, kernel="sealed")
        for head, times in zip(self.heads, self.trains):
            sim.schedule_train(mono[head.name], "a", times)
        self.reference_events = sim.run().events_processed
        return {label: list(rec.times) for label, rec in recorders.items()}

    def peak_rss_mb(self) -> float:
        return self.parent_rss_mb + self.worker_rss_mb


WORKLOADS = {cls.name: cls for cls in
             (ServeInteractive, ServeBurst, SynthCompile, ShardFabric)}
