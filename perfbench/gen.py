"""Seeded input generators owned by the benchmark.

Every workload input comes from here and from nothing in ``repro``: the
DPU operands, the repeat pattern of the interactive callers, the
``usfq-dataflow/1`` documents and the shard stimulus.  A program change
therefore cannot change the workload.  Each generator takes the run's
``--seed`` and is deterministic for it; different seeds give different
inputs (``selftest.py`` checks both).
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, Iterator, List, Set, Tuple

#: The one DPU configuration both serve workloads use.
DPU_CONFIG = {"bits": 5, "length": 8, "bipolar": True, "slot_fs": 40_000}
N_MAX = 1 << DPU_CONFIG["bits"]

#: Share of interactive requests that repeat an earlier request.
REPEAT_SHARE = 0.25

#: Requests per serve_burst burst (one NN layer's dot products).
BURST = 64


def _rng(seed: int, *stream: object) -> random.Random:
    return random.Random("perfbench/" + "/".join(str(s) for s in (seed,) + stream))


def dpu_operands(rng: random.Random) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """One ``(a_slots, b_counts)`` pair in the DPU's operand domain."""
    length = DPU_CONFIG["length"]
    a_slots = tuple(rng.randint(0, N_MAX) for _ in range(length))
    b_counts = tuple(rng.randint(0, N_MAX) for _ in range(length))
    return a_slots, b_counts


def dpu_body(operands: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> bytes:
    """The HTTP/``handle`` body of one ``dpu.dot`` request."""
    a_slots, b_counts = operands
    return json.dumps({
        "op": "dpu.dot",
        "config": DPU_CONFIG,
        "a_slots": list(a_slots),
        "b_counts": list(b_counts),
    }, sort_keys=True).encode()


class _Distinct:
    """Draws operands never drawn before in this run (so misses stay misses)."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._seen: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()

    def draw(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        while True:
            operands = dpu_operands(self._rng)
            if operands not in self._seen:
                self._seen.add(operands)
                return operands


def interactive_requests(seed: int, caller: int) -> Iterator[Tuple[int, Tuple]]:
    """Endless request stream of one interactive caller.

    Yields ``(first_index, operands)``: ``first_index`` is the stream
    position at which these operands were first sent, so a repeat names
    the request whose answer it must reproduce byte for byte.  About
    :data:`REPEAT_SHARE` of requests repeat one of the caller's own earlier
    requests, which is complete by then (closed loop), so with a fresh
    server every hit comes from the run's own repeats.
    """
    rng = _rng(seed, "interactive", caller)
    fresh = _Distinct(_rng(seed, "interactive-operands", caller))
    history: List[Tuple[int, Tuple]] = []
    index = 0
    while True:
        if history and rng.random() < REPEAT_SHARE:
            yield rng.choice(history)
        else:
            entry = (index, fresh.draw())
            history.append(entry)
            yield entry
        index += 1


def warmup_body(seed: int) -> bytes:
    """A request drawn apart from every measured stream."""
    return dpu_body(dpu_operands(_rng(seed, "warmup")))


def bursts(seed: int, stream: str = "burst") -> Iterator[List[Tuple]]:
    """Endless stream of bursts of :data:`BURST` never-seen operand pairs."""
    fresh = _Distinct(_rng(seed, stream))
    while True:
        yield [fresh.draw() for _ in range(BURST)]


# -- usfq-dataflow/1 documents ------------------------------------------------
#: Small-program mix: ``SMALL_SPECS`` random programs of 1 to 7 operations.
SMALL_SPECS = 546
SMALL_BITS = (2, 3, 4, 5)

#: The size tail, one document of each ``(kind, size, other, bits)`` shape
#: per seed with seeded weights: matvecs of ``size`` rows by ``other``
#: columns and tap chains of ``size`` taps ``other`` slots apart, up to
#: 16x16, 32 taps and 7-bit epochs.  They are 2.5% of the mix, so the
#: 99th percentile of spec latency falls among them.
TAIL_SHAPES = (
    ("matvec", 16, 16, 5), ("matvec", 12, 12, 5), ("matvec", 8, 16, 5),
    ("matvec", 8, 8, 6), ("matvec", 10, 4, 6), ("matvec", 4, 12, 7),
    ("matvec", 6, 6, 7),
    ("tap", 32, 1, 5), ("tap", 30, 2, 6), ("tap", 20, 3, 6), ("tap", 16, 4, 6),
    ("tap", 28, 1, 7), ("tap", 24, 2, 7), ("tap", 12, 8, 7),
)


class _SpecBuilder:
    """Accumulates nodes while tracking which values are still unconsumed."""

    def __init__(self, rng: random.Random, bits: int):
        self.rng = rng
        self.bits = bits
        self.n_max = 1 << bits
        self.nodes: List[Dict[str, Any]] = []
        self.streams: List[str] = []
        self.weights: List[Tuple[str, int]] = []
        self.unconsumed: List[str] = []

    def _new(self, prefix: str) -> str:
        return f"{prefix}{len(self.nodes)}"

    def _produce(self, node: Dict[str, Any], refs: List[str]) -> None:
        self.nodes.append(node)
        self.unconsumed.extend(refs)

    def _consume(self, ref: str) -> str:
        if ref in self.unconsumed:
            self.unconsumed.remove(ref)
        return ref

    def stream_const(self) -> str:
        ref = self._new("s")
        level = self.rng.randint(0, self.n_max)
        self._produce({"id": ref, "op": "const", "encoding": "stream",
                       "level": level}, [ref])
        self.streams.append(ref)
        return ref

    def weight_const(self) -> Tuple[str, int]:
        ref = self._new("w")
        level = self.rng.randint(0, self.n_max)
        self._produce({"id": ref, "op": "const", "encoding": "rl",
                       "level": level}, [ref])
        self.weights.append((ref, level))
        return ref, level

    def pick_stream(self) -> str:
        return self._consume(self.rng.choice(self.streams))

    def add(self) -> None:
        count = min(len(self.streams), self.rng.randint(1, 3))
        args = self.rng.sample(self.streams, count)
        ref = self._new("a")
        self._produce({"id": ref, "op": "add",
                       "args": [self._consume(a) for a in args]}, [ref])
        self.streams.append(ref)

    def mul(self) -> None:
        if not self.weights or self.rng.random() < 0.5:
            self.weight_const()
        weight, _level = self.rng.choice(self.weights)
        ref = self._new("m")
        self._produce({"id": ref, "op": "mul",
                       "args": [self.pick_stream(), self._consume(weight)]},
                      [ref])
        self.streams.append(ref)

    def delay(self) -> None:
        ref = self._new("d")
        if self.weights and self.rng.random() < 0.3:
            weight, level = self.rng.choice(self.weights)
            slots = self.rng.randint(0, min(3, self.n_max - level))
            self._produce({"id": ref, "op": "delay",
                           "args": [self._consume(weight)], "slots": slots},
                          [ref])
            self.weights.append((ref, level + slots))
        else:
            self._produce({"id": ref, "op": "delay",
                           "args": [self.pick_stream()],
                           "slots": self.rng.randint(0, 3)}, [ref])
            self.streams.append(ref)

    def tap(self) -> None:
        spacing = self.rng.randint(1, 2)
        count = self.rng.randint(1, min(4, self.n_max // spacing + 1))
        ref = self._new("t")
        self._produce({
            "id": ref, "op": "tap", "args": [self.pick_stream()],
            "taps": [self.rng.randint(0, self.n_max) for _ in range(count)],
            "spacing": spacing,
        }, [ref])
        self.streams.append(ref)

    def matvec(self) -> None:
        rows = self.rng.randint(1, 3)
        width = self.rng.randint(1, 3)
        while len(self.streams) < width:
            self.stream_const()
        args = self.rng.sample(self.streams, width)
        ref = self._new("v")
        outs = [f"{ref}.y{row}" for row in range(rows)]
        self._produce({
            "id": ref, "op": "matvec",
            "args": [self._consume(a) for a in args],
            "matrix": [[self.rng.randint(0, self.n_max) for _ in range(width)]
                       for _ in range(rows)],
        }, outs)
        self.streams.extend(outs)

    def document(self, name: str) -> Dict[str, Any]:
        return {"format": "usfq-dataflow/1", "name": name, "bits": self.bits,
                "nodes": self.nodes, "outputs": list(self.unconsumed)}


_SMALL_OPS = ("const", "add", "mul", "delay", "tap", "matvec")
_SMALL_WEIGHTS = (2, 4, 4, 2, 2, 1)


def small_spec(rng: random.Random, index: int, name: str) -> Dict[str, Any]:
    """Small random program number ``index`` of the mix.

    The epoch resolution and the operation count cycle with ``index`` and
    only the operations themselves are drawn, which keeps the mix's cost
    nearly the same from seed to seed.
    """
    builder = _SpecBuilder(rng, SMALL_BITS[index % len(SMALL_BITS)])
    for _ in range(rng.randint(1, 2)):
        builder.stream_const()
    for _ in range(1 + (index // len(SMALL_BITS)) % 7):
        op = rng.choices(_SMALL_OPS, weights=_SMALL_WEIGHTS)[0]
        if op == "const":
            if rng.random() < 0.5:
                builder.stream_const()
            else:
                builder.weight_const()
        else:
            getattr(builder, op)()
    return builder.document(name)


def _spread_levels(rng: random.Random, count: int, n_max: int) -> List[int]:
    """``count`` levels evenly spread over ``0..n_max``, in seeded order.

    Every seed gets the same multiset, so a tail spec's size, and with it
    its cost, is the same from seed to seed; only the arrangement differs.
    """
    levels = [round(k * n_max / max(1, count - 1)) for k in range(count)]
    rng.shuffle(levels)
    return levels


def tail_spec(rng: random.Random, shape: Tuple, name: str) -> Dict[str, Any]:
    """One size-tail document of the given :data:`TAIL_SHAPES` shape."""
    kind, size, other, bits = shape
    n_max = 1 << bits
    nodes: List[Dict[str, Any]] = []
    if kind == "matvec":
        levels = _spread_levels(rng, other, n_max)
        for col, level in enumerate(levels):
            nodes.append({"id": f"s{col}", "op": "const", "encoding": "stream",
                          "level": level})
        weights = _spread_levels(rng, size * other, n_max)
        nodes.append({"id": "v", "op": "matvec",
                      "args": [f"s{col}" for col in range(other)],
                      "matrix": [weights[row * other:(row + 1) * other]
                                 for row in range(size)]})
        outputs = [f"v.y{row}" for row in range(size)]
    else:
        nodes.append({"id": "s0", "op": "const", "encoding": "stream",
                      "level": 3 * n_max // 4})
        nodes.append({"id": "t", "op": "tap", "args": ["s0"], "spacing": other,
                      "taps": _spread_levels(rng, size, n_max)})
        outputs = ["t"]
    return {"format": "usfq-dataflow/1", "name": name, "bits": bits,
            "nodes": nodes, "outputs": outputs}


def spec_documents(seed: int) -> List[str]:
    """The synth_compile mix for ``seed`` as JSON texts, tail specs spread in."""
    rng = _rng(seed, "synth")
    docs = [small_spec(rng, i, f"small{i}") for i in range(SMALL_SPECS)]
    stride = SMALL_SPECS // len(TAIL_SHAPES)
    for i, shape in enumerate(TAIL_SHAPES):
        docs.insert(i * (stride + 1), tail_spec(rng, shape, f"tail{i}"))
    return [json.dumps(doc, sort_keys=True) for doc in docs]


# -- shard stimulus -----------------------------------------------------------
#: The wide fabric: COLUMNS JTL columns of DEPTH stages into a merger tree.
COLUMNS = 8
DEPTH = 64
PULSES = 3_000
SHARD_N_MAX = 4_096
SHARD_SLOT_FS = 4_000


def shard_stimulus(seed: int) -> List[List[int]]:
    """Per-column uniform streams of :data:`PULSES` pulses with seeded phases.

    Phases are distinct multiples of 7 fs below one slot, so no two columns
    ever put pulses on the merger tree at the same instant.
    """
    rng = _rng(seed, "shard")
    phases = rng.sample(range(1, SHARD_SLOT_FS // 7), COLUMNS)
    return [
        [7 * phase + (k * SHARD_N_MAX // PULSES) * SHARD_SLOT_FS
         for k in range(PULSES)]
        for phase in phases
    ]
