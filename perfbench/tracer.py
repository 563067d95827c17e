"""Spans recorded from outside the program, and what is derived from them.

The benchmark never edits ``repro``.  In a traced run it replaces public
functions *where they are looked up* (a class attribute, or a module
global such as ``repro.synth.api.lower_graph``) with wrappers that record
a span around each call, and restores them afterwards.  Spans live in
memory and are written once, at the end, as Chrome trace-event JSON
(opens in Perfetto) plus a JSON list for :func:`load_spans`.

A span carries its name, start and end (``time.perf_counter_ns``, which
is ``CLOCK_MONOTONIC`` and so comparable across processes of one host),
its parent, the id of the benchmark operation it serves and a few
attributes.  Parents follow the caller's context (a ``ContextVar``, so
asyncio tasks and threads each keep their own chain); a wrapper may also
name the parent explicitly when the program hands work across a queue or
a thread.

Attribution: :func:`blocking_path` splits one operation's wall time over
the spans on its path, giving every instant to the most recently started
span still open.  Time left on the operation's own root span is not
covered by any program span.
"""

from __future__ import annotations

import contextvars
import functools
import heapq
import inspect
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter_ns


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "track",
                 "attrs", "pid", "adopted")

    def __init__(self, sid: int, name: str, start: int, parent: Optional["Span"],
                 op: Any, track: Any, pid: int):
        self.sid = sid
        self.name = name
        self.start = start
        self.end: Optional[int] = None
        self.parent = parent
        self.op = op
        self.track = track
        self.attrs: Dict[str, Any] = {}
        self.pid = pid
        #: Spans this one blocks on without being their caller (a request
        #: waiting on the batch its lanes ride in).
        self.adopted: List["Span"] = []

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    def to_json(self) -> Dict[str, Any]:
        return {
            "sid": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent.sid if self.parent else None,
            "op": self.op, "track": self.track, "attrs": self.attrs,
            "pid": self.pid, "adopted": [s.sid for s in self.adopted],
        }


_INHERIT = object()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------------
    def open(self, name: str, parent: Any = _INHERIT, op: Any = _INHERIT,
             track: Any = _INHERIT, start: Optional[int] = None) -> Span:
        if parent is _INHERIT:
            parent = self._current.get()
        if op is _INHERIT:
            op = parent.op if parent is not None else None
        if track is _INHERIT:
            track = parent.track if parent is not None else 0
        with self._lock:
            span = Span(len(self.spans), name, _now() if start is None else start,
                        parent, op, track, self._pid)
            self.spans.append(span)
        return span

    def close(self, span: Span, end: Optional[int] = None) -> Span:
        span.end = _now() if end is None else end
        return span

    def current(self) -> Optional[Span]:
        return self._current.get()

    def activate(self, span: Optional[Span]) -> contextvars.Token:
        return self._current.set(span)

    def deactivate(self, token: contextvars.Token) -> None:
        self._current.reset(token)

    # -- wrapping ----------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             place: Optional[Callable[..., Optional[Dict[str, Any]]]] = None,
             opened: Optional[Callable[..., None]] = None,
             closed: Optional[Callable[..., None]] = None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``place(args, kwargs)`` may return ``parent``/``op``/``track``
        overrides for the new span; ``opened(span, args, kwargs)`` runs
        once it is open and ``closed(span, args, kwargs, result)`` once the
        call returned.
        """
        original = getattr(owner, attr)
        tracer = self

        def begin(args: tuple, kwargs: dict) -> Tuple[Span, contextvars.Token]:
            span = tracer.open(name, **((place(args, kwargs) if place else None) or {}))
            if opened:
                opened(span, args, kwargs)
            return span, tracer.activate(span)

        def finish(span: Span, token: contextvars.Token) -> None:
            tracer.deactivate(token)
            tracer.close(span)

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                span, token = begin(args, kwargs)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    finish(span, token)
                if closed:
                    closed(span, args, kwargs, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                span, token = begin(args, kwargs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    finish(span, token)
                if closed:
                    closed(span, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Swap ``owner.attr`` for ``value`` until :meth:`uninstall`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.to_json() for span in self.spans
                       if span.end is not None], handle)


def load_spans(path: str, sid_offset: int) -> List[Span]:
    """Spans written by :meth:`Tracer.dump`, links restored, ids shifted
    by ``sid_offset`` so they cannot clash with this process's spans."""
    with open(path) as handle:
        docs = json.load(handle)
    spans: Dict[int, Span] = {}
    for doc in docs:
        span = Span(doc["sid"] + sid_offset, doc["name"], doc["start"], None, doc["op"],
                    doc["track"], doc["pid"])
        span.end = doc["end"]
        span.attrs = doc["attrs"]
        spans[doc["sid"]] = span
    for doc in docs:
        span = spans[doc["sid"]]
        if doc["parent"] is not None:
            span.parent = spans.get(doc["parent"])
        span.adopted = [spans[sid] for sid in doc["adopted"] if sid in spans]
    return list(spans.values())


def chrome_trace(spans: Iterable[Span], names: Dict[Any, str]) -> Dict[str, Any]:
    """Chrome trace-event JSON: one complete event per span.

    Tracks are ``(pid, track)`` pairs; ``names`` labels them.  A span's
    ``op`` id and attributes land in ``args`` so one request, burst, spec
    or run can be followed across tracks.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[Tuple[int, Any], int] = {}
    spans = sorted(spans, key=lambda s: (s.start, -s.end))
    origin = min((s.start for s in spans), default=0)
    for span in spans:
        key = (span.pid, span.track)
        if key not in tids:
            tids[key] = len(tids) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": span.pid,
                           "tid": tids[key],
                           "args": {"name": names.get(span.track, str(span.track))}})
        args = {"op": span.op}
        args.update({k: v for k, v in span.attrs.items()
                     if isinstance(v, (int, float, str, bool))})
        events.append({
            "ph": "X", "name": span.name, "cat": span.name.split(".")[0],
            "pid": span.pid, "tid": tids[key],
            "ts": (span.start - origin) / 1e3, "dur": (span.end - span.start) / 1e3,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def children_index(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent.sid, []).append(span)
        for adopted in span.adopted:
            index.setdefault(span.sid, []).append(adopted)
    return index


def self_ms(span: Span, children: Dict[int, List[Span]]) -> float:
    """Duration minus the part of it that child spans cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children.get(span.sid, ())
    )
    covered = 0
    reach = span.start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start - covered) / 1e6


def subtree(root: Span, children: Dict[int, List[Span]]) -> List[Span]:
    seen = {root.sid}
    out = [root]
    stack = [root]
    while stack:
        for child in children.get(stack.pop().sid, ()):
            if child.sid not in seen:
                seen.add(child.sid)
                out.append(child)
                stack.append(child)
    return out


def blocking_path(root: Span, children: Dict[int, List[Span]]) -> Dict[str, float]:
    """Milliseconds of ``root``'s duration given to each span name.

    Every instant goes to the most recently started span still open
    (ties to the one recorded later, i.e. the inner one), so the values
    sum to the root's duration and the root keeps only the uncovered time.
    """
    spans = subtree(root, children)
    bounds = sorted({root.start, root.end}
                    | {max(root.start, min(root.end, t))
                       for s in spans for t in (s.start, s.end)})
    starts = sorted(spans, key=lambda s: (s.start, s.sid))
    heap: List[Tuple[int, int, Span]] = []
    shares: Dict[str, float] = {}
    i = 0
    for lo, hi in zip(bounds, bounds[1:]):
        while i < len(starts) and starts[i].start <= lo:
            span = starts[i]
            heapq.heappush(heap, (-span.start, -span.sid, span))
            i += 1
        while heap and heap[0][2].end <= lo:
            heapq.heappop(heap)
        if heap:
            name = heap[0][2].name
            shares[name] = shares.get(name, 0.0) + (hi - lo) / 1e6
    return shares
