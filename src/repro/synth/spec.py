"""Dataflow specification IR for the U-SFQ synthesis frontend.

A :class:`DataflowSpec` is a small, JSON-serializable dataflow program
over unary-encoded operands.  Each node produces one value (the matvec
macro produces one per row) in one of the two paper encodings:

* ``"stream"`` — pulse-stream: the value ``n`` is carried as ``n``
  pulses spread over the epoch of ``n_max = 2**bits`` slots (paper
  §3.1).
* ``"rl"`` — Race Logic: a single pulse whose slot index *is* the
  value (paper §3.2).  RL values in this IR are static weights — they
  are known at compile time, which is what lets the lowering pipeline
  schedule the NDRO ``set``/``reset`` ladder deterministically and lets
  the optimizer fold multiplications by 0 or full scale.

Node operators (``op``):

``const``
    A literal operand: ``level`` in ``0..n_max`` with an explicit
    ``encoding`` (``"stream"`` caps at ``n_max``; ``"rl"`` allows the
    full-scale slot ``n_max`` meaning "never resets").
``add``
    Superposition of >= 1 pulse streams (merger tree after lowering).
``mul``
    Unipolar product of a stream by a static RL weight (NDRO cell,
    paper Fig. 7): ``args = [stream, rl]``.
``delay``
    Shift a value by ``slots`` epoch slots.  For streams this delays
    every pulse; for RL it adds to the encoded value (so ``value +
    slots`` must stay within the epoch).
``tap``
    FIR tap-chain macro: one stream input, ``taps`` static RL weights
    applied to progressively delayed copies (``spacing`` slots apart),
    summed.  Expands to delay/const/mul/add primitives.
``matvec``
    Matrix-vector macro: ``matrix`` (rows of static weights) times a
    vector of stream args; row ``i`` is published as ``"<id>.y<i>"``.

Values are referenced by node id (or ``"<id>.y<i>"`` for matvec rows).
Every produced value must be consumed or listed in ``outputs`` — the
same *total observability* rule the netlist linter enforces — and
``outputs`` must be non-empty.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import SynthesisError

FORMAT = "usfq-dataflow/1"

#: Encodings a spec edge can carry (paper §3).
ENCODINGS = ("stream", "rl")

#: Operators accepted in the IR, including the two macros.
OPS = ("const", "add", "mul", "delay", "tap", "matvec")

#: Upper bound on epoch resolution for synthesized circuits: epochs are
#: ``2**bits`` slots and simulated event counts grow linearly with them.
MAX_BITS = 10

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: Node ids the lowering pipeline reserves for its own namespaces.
RESERVED_IDS = frozenset({"epoch"})


def _check_id(node_id: Any) -> str:
    if not isinstance(node_id, str) or not _ID_RE.match(node_id):
        raise SynthesisError(
            f"node id {node_id!r} must match {_ID_RE.pattern}"
        )
    if "__" in node_id:
        raise SynthesisError(
            f"node id {node_id!r} may not contain '__'"
            " (reserved for synthesized cell names)"
        )
    if node_id in RESERVED_IDS:
        raise SynthesisError(f"node id {node_id!r} is reserved")
    return node_id


@dataclass(frozen=True)
class NodeSpec:
    """One dataflow node. Unused fields stay at their defaults."""

    id: str
    op: str
    args: Tuple[str, ...] = ()
    level: Optional[int] = None
    encoding: Optional[str] = None
    slots: Optional[int] = None
    taps: Tuple[int, ...] = ()
    spacing: int = 1
    matrix: Tuple[Tuple[int, ...], ...] = ()

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"id": self.id, "op": self.op}
        if self.args:
            doc["args"] = list(self.args)
        if self.level is not None:
            doc["level"] = self.level
        if self.encoding is not None:
            doc["encoding"] = self.encoding
        if self.slots is not None:
            doc["slots"] = self.slots
        if self.taps:
            doc["taps"] = list(self.taps)
            doc["spacing"] = self.spacing
        if self.matrix:
            doc["matrix"] = [list(row) for row in self.matrix]
        return doc

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "NodeSpec":
        if not isinstance(doc, Mapping):
            raise SynthesisError(f"node entry must be an object, got {doc!r}")
        unknown = set(doc) - {
            "id", "op", "args", "level", "encoding",
            "slots", "taps", "spacing", "matrix",
        }
        if unknown:
            raise SynthesisError(
                f"node {doc.get('id')!r} has unknown fields {sorted(unknown)}"
            )
        node_id = _check_id(doc.get("id"))
        op = doc.get("op")
        if op not in OPS:
            raise SynthesisError(
                f"node {node_id!r}: unknown op {op!r} (expected one of {OPS})"
            )
        args = doc.get("args", [])
        if not isinstance(args, list) or not all(
            isinstance(a, str) for a in args
        ):
            raise SynthesisError(
                f"node {node_id!r}: args must be a list of value refs"
            )
        taps = doc.get("taps", [])
        if not isinstance(taps, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in taps
        ):
            raise SynthesisError(
                f"node {node_id!r}: taps must be a list of integers"
            )
        matrix = doc.get("matrix", [])
        if not isinstance(matrix, list) or not all(
            isinstance(row, list)
            and all(isinstance(w, int) and not isinstance(w, bool) for w in row)
            for row in matrix
        ):
            raise SynthesisError(
                f"node {node_id!r}: matrix must be a list of integer rows"
            )
        for name in ("level", "slots", "spacing"):
            value = doc.get(name)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise SynthesisError(
                    f"node {node_id!r}: {name} must be an integer"
                )
        encoding = doc.get("encoding")
        if encoding is not None and encoding not in ENCODINGS:
            raise SynthesisError(
                f"node {node_id!r}: unknown encoding {encoding!r}"
            )
        return cls(
            id=node_id,
            op=op,
            args=tuple(args),
            level=doc.get("level"),
            encoding=encoding,
            slots=doc.get("slots"),
            taps=tuple(taps),
            spacing=doc.get("spacing", 1),
            matrix=tuple(tuple(row) for row in matrix),
        )


@dataclass(frozen=True)
class DataflowSpec:
    """A named dataflow program plus its epoch parameters."""

    name: str
    bits: int
    nodes: Tuple[NodeSpec, ...]
    outputs: Tuple[str, ...]
    slot_fs: Optional[int] = None

    @property
    def n_max(self) -> int:
        return 2 ** self.bits

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "format": FORMAT,
            "name": self.name,
            "bits": self.bits,
            "nodes": [node.to_json() for node in self.nodes],
            "outputs": list(self.outputs),
        }
        if self.slot_fs is not None:
            doc["slot_fs"] = self.slot_fs
        return doc

    def key(self) -> str:
        """Short content hash, used to seed per-spec derived randomness."""
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "DataflowSpec":
        if not isinstance(doc, Mapping):
            raise SynthesisError(f"spec must be an object, got {doc!r}")
        if doc.get("format") != FORMAT:
            raise SynthesisError(
                f"unsupported spec format {doc.get('format')!r}"
                f" (expected {FORMAT!r})"
            )
        unknown = set(doc) - {"format", "name", "bits", "nodes", "outputs",
                              "slot_fs"}
        if unknown:
            raise SynthesisError(f"spec has unknown fields {sorted(unknown)}")
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise SynthesisError("spec name must be a non-empty string")
        bits = doc.get("bits")
        if not isinstance(bits, int) or isinstance(bits, bool):
            raise SynthesisError("spec bits must be an integer")
        nodes_doc = doc.get("nodes")
        if not isinstance(nodes_doc, list):
            raise SynthesisError("spec nodes must be a list")
        outputs = doc.get("outputs")
        if not isinstance(outputs, list) or not all(
            isinstance(ref, str) for ref in outputs
        ):
            raise SynthesisError("spec outputs must be a list of value refs")
        slot_fs = doc.get("slot_fs")
        if slot_fs is not None and (
            not isinstance(slot_fs, int) or isinstance(slot_fs, bool)
        ):
            raise SynthesisError("spec slot_fs must be an integer")
        spec = cls(
            name=name,
            bits=bits,
            nodes=tuple(NodeSpec.from_json(entry) for entry in nodes_doc),
            outputs=tuple(outputs),
            slot_fs=slot_fs,
        )
        validate_spec(spec)
        return spec


def spec_from_json(text: str) -> DataflowSpec:
    """Parse and validate a spec from its JSON text."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SynthesisError(f"spec is not valid JSON: {exc}") from exc
    return DataflowSpec.from_json(doc)


@dataclass
class _Produced:
    """Type information for one produced value during validation.

    ``level`` is the statically known value for RL edges (RL weights in
    this IR are compile-time constants; delays add to them).
    """

    encoding: str
    consumed: bool = False
    level: Optional[int] = None


def _expect_args(node: NodeSpec, count: int) -> None:
    if len(node.args) != count:
        raise SynthesisError(
            f"node {node.id!r}: op {node.op!r} takes exactly {count}"
            f" argument(s), got {len(node.args)}"
        )


def _forbid(node: NodeSpec, **fields: bool) -> None:
    for name, present in fields.items():
        if present:
            raise SynthesisError(
                f"node {node.id!r}: field {name!r} is not valid for"
                f" op {node.op!r}"
            )


def validate_spec(spec: DataflowSpec) -> Dict[str, str]:
    """Validate a spec; returns the ``ref -> encoding`` type environment.

    Raises :class:`~repro.errors.SynthesisError` on the first violation:
    malformed ids/fields, out-of-range levels, unknown or out-of-order
    references, encoding mismatches, unconsumed values missing from
    ``outputs``, or unknown outputs.
    """
    if not 1 <= spec.bits <= MAX_BITS:
        raise SynthesisError(
            f"spec bits must be in 1..{MAX_BITS}, got {spec.bits}"
        )
    if spec.slot_fs is not None and spec.slot_fs <= 0:
        raise SynthesisError(f"spec slot_fs must be positive, got"
                             f" {spec.slot_fs}")
    if not isinstance(spec.name, str) or not spec.name:
        raise SynthesisError("spec name must be a non-empty string")
    n_max = spec.n_max
    env: Dict[str, _Produced] = {}

    def use(node: NodeSpec, ref: str, want: str) -> None:
        produced = env.get(ref)
        if produced is None:
            raise SynthesisError(
                f"node {node.id!r}: argument {ref!r} does not reference an"
                " earlier node"
            )
        if produced.encoding != want:
            raise SynthesisError(
                f"node {node.id!r}: argument {ref!r} is"
                f" {produced.encoding!r}-encoded, expected {want!r}"
            )
        produced.consumed = True

    def define(
        node: NodeSpec, ref: str, encoding: str, level: Optional[int] = None
    ) -> None:
        if ref in env:
            raise SynthesisError(f"duplicate value ref {ref!r}")
        env[ref] = _Produced(encoding, level=level)

    def check_weight(node: NodeSpec, weight: int, what: str) -> None:
        if not 0 <= weight <= n_max:
            raise SynthesisError(
                f"node {node.id!r}: {what} {weight} out of range"
                f" 0..{n_max} for bits={spec.bits}"
            )

    for node in spec.nodes:
        _check_id(node.id)
        if node.op == "const":
            _expect_args(node, 0)
            _forbid(node, slots=node.slots is not None, taps=bool(node.taps),
                    matrix=bool(node.matrix))
            if node.encoding not in ENCODINGS:
                raise SynthesisError(
                    f"node {node.id!r}: const needs an explicit encoding"
                )
            if node.level is None:
                raise SynthesisError(f"node {node.id!r}: const needs a level")
            if not 0 <= node.level <= n_max:
                raise SynthesisError(
                    f"node {node.id!r}: level {node.level} out of range"
                    f" 0..{n_max} for bits={spec.bits}"
                )
            define(node, node.id, node.encoding,
                   level=node.level if node.encoding == "rl" else None)
        elif node.op == "add":
            _forbid(node, level=node.level is not None,
                    encoding=node.encoding is not None,
                    slots=node.slots is not None, taps=bool(node.taps),
                    matrix=bool(node.matrix))
            if not node.args:
                raise SynthesisError(
                    f"node {node.id!r}: add needs at least one argument"
                )
            for ref in node.args:
                use(node, ref, "stream")
            define(node, node.id, "stream")
        elif node.op == "mul":
            _expect_args(node, 2)
            _forbid(node, level=node.level is not None,
                    encoding=node.encoding is not None,
                    slots=node.slots is not None, taps=bool(node.taps),
                    matrix=bool(node.matrix))
            use(node, node.args[0], "stream")
            use(node, node.args[1], "rl")
            define(node, node.id, "stream")
        elif node.op == "delay":
            _expect_args(node, 1)
            _forbid(node, level=node.level is not None,
                    encoding=node.encoding is not None, taps=bool(node.taps),
                    matrix=bool(node.matrix))
            if node.slots is None or not 0 <= node.slots <= n_max:
                raise SynthesisError(
                    f"node {node.id!r}: delay needs slots in 0..{n_max}"
                )
            ref = node.args[0]
            produced = env.get(ref)
            if produced is None:
                raise SynthesisError(
                    f"node {node.id!r}: argument {ref!r} does not reference"
                    " an earlier node"
                )
            use(node, ref, produced.encoding)
            level: Optional[int] = None
            if produced.encoding == "rl":
                assert produced.level is not None
                level = produced.level + node.slots
                if level > n_max:
                    raise SynthesisError(
                        f"node {node.id!r}: delaying RL value"
                        f" {produced.level} by {node.slots} slots exceeds"
                        f" the epoch ({n_max} slots)"
                    )
            define(node, node.id, produced.encoding, level=level)
        elif node.op == "tap":
            _expect_args(node, 1)
            _forbid(node, level=node.level is not None,
                    encoding=node.encoding is not None,
                    slots=node.slots is not None, matrix=bool(node.matrix))
            if not node.taps:
                raise SynthesisError(
                    f"node {node.id!r}: tap needs at least one tap weight"
                )
            if node.spacing < 1:
                raise SynthesisError(
                    f"node {node.id!r}: tap spacing must be >= 1"
                )
            for weight in node.taps:
                check_weight(node, weight, "tap weight")
            depth = (len(node.taps) - 1) * node.spacing
            if depth > n_max:
                raise SynthesisError(
                    f"node {node.id!r}: tap chain spans {depth} slots,"
                    f" exceeding the epoch ({n_max} slots)"
                )
            use(node, node.args[0], "stream")
            define(node, node.id, "stream")
        elif node.op == "matvec":
            _forbid(node, level=node.level is not None,
                    encoding=node.encoding is not None,
                    slots=node.slots is not None, taps=bool(node.taps))
            if not node.matrix:
                raise SynthesisError(
                    f"node {node.id!r}: matvec needs a non-empty matrix"
                )
            if not node.args:
                raise SynthesisError(
                    f"node {node.id!r}: matvec needs at least one argument"
                )
            width = len(node.args)
            for row_index, row in enumerate(node.matrix):
                if len(row) != width:
                    raise SynthesisError(
                        f"node {node.id!r}: matrix row {row_index} has"
                        f" {len(row)} weights for {width} argument(s)"
                    )
                for weight in row:
                    check_weight(node, weight, "matrix weight")
            for ref in node.args:
                use(node, ref, "stream")
            for row_index in range(len(node.matrix)):
                define(node, f"{node.id}.y{row_index}", "stream")
        else:  # pragma: no cover - OPS membership is checked in from_json
            raise SynthesisError(f"node {node.id!r}: unknown op {node.op!r}")

    if not spec.outputs:
        raise SynthesisError("spec outputs must be non-empty")
    seen_outputs = set()
    for ref in spec.outputs:
        if ref not in env:
            raise SynthesisError(f"output {ref!r} is not a produced value")
        if ref in seen_outputs:
            raise SynthesisError(f"output {ref!r} listed twice")
        seen_outputs.add(ref)
        env[ref].consumed = True

    dangling = [ref for ref, produced in env.items() if not produced.consumed]
    if dangling:
        raise SynthesisError(
            "values are neither consumed nor output (dangling):"
            f" {sorted(dangling)}"
        )
    return {ref: produced.encoding for ref, produced in env.items()}


def dataflow_spec(
    name: str,
    bits: int,
    nodes: Sequence[Mapping[str, Any]],
    outputs: Sequence[str],
    slot_fs: Optional[int] = None,
) -> DataflowSpec:
    """Convenience constructor from plain dicts; validates the result."""
    spec = DataflowSpec(
        name=name,
        bits=bits,
        nodes=tuple(NodeSpec.from_json(dict(entry)) for entry in nodes),
        outputs=tuple(outputs),
        slot_fs=slot_fs,
    )
    validate_spec(spec)
    return spec
