"""Request model for the serving layer.

A request is JSON with an ``op`` selecting the accelerator operation, a
``config`` describing the (compile-once) hardware instance, and operand
fields.  Parsing is strict — unknown fields, wrong types, and
out-of-range operands are rejected with a :class:`ProtocolError` before
any simulation work is queued, so malformed traffic cannot occupy batch
lanes.

Two derived keys drive the serving machinery:

* :meth:`Request.batch_key` — requests with equal batch keys execute as
  **one** group (one ``DotProductUnit.run_counts_batch`` call).  For
  ``dpu.dot`` that is the canonical config (same circuit, any
  operands); model-evaluated ops (``fir.*``, ``pe.*``) are cheap enough
  that each request is its own group of one.
* :meth:`Request.cache_key` — content address of the response: the
  source-tree digest crossed with the canonical JSON of ``op`` +
  ``config`` + operands.  ``deadline_ms`` is *excluded*: how long a
  client is willing to wait never changes the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.digest import canonical_json, payload_digest
from repro.errors import ReproError

#: Validation ceilings: generous for experiments, small enough that one
#: request cannot monopolise the service.
MAX_LENGTH = 64  #: DPU lanes per request (a power of two >= 2)
MAX_BITS = 10  #: epoch resolution (n_max = 1024)
MAX_SAMPLES = 4096  #: FIR sample-stream length
MAX_TAPS = 64  #: FIR coefficient count
MAX_MATMUL_DIM = 32  #: PE-array matmul side length

#: The ops this service understands, in documentation order.
OPS = ("dpu.dot", "fir.unary", "fir.binary", "pe.mac", "pe.matmul")

#: Ops whose requests coalesce onto lanes of one batch dispatch.
BATCHABLE_OPS = frozenset({"dpu.dot"})


class ProtocolError(ReproError):
    """A request failed validation; maps to HTTP 400."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _get_int(obj: Dict[str, Any], key: str, lo: int, hi: int) -> int:
    value = obj.get(key)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"'{key}' must be an integer",
    )
    _require(lo <= value <= hi, f"'{key}' must be in [{lo}, {hi}], got {value}")
    return value


def _get_bool(obj: Dict[str, Any], key: str, default: bool) -> bool:
    value = obj.get(key, default)
    _require(isinstance(value, bool), f"'{key}' must be a boolean")
    return value


def _get_number_list(
    obj: Dict[str, Any], key: str, max_len: int, lo: float, hi: float
) -> List[float]:
    value = obj.get(key)
    _require(isinstance(value, list), f"'{key}' must be a list")
    _require(
        1 <= len(value) <= max_len,
        f"'{key}' must have 1..{max_len} entries, got {len(value)}",
    )
    out: List[float] = []
    for index, item in enumerate(value):
        _require(
            isinstance(item, (int, float)) and not isinstance(item, bool),
            f"'{key}[{index}]' must be a number",
        )
        _require(
            lo <= item <= hi,
            f"'{key}[{index}]' must be in [{lo}, {hi}], got {item}",
        )
        out.append(float(item))
    return out


def _get_int_list(
    obj: Dict[str, Any], key: str, exact_len: int, lo: int, hi: int
) -> List[int]:
    value = obj.get(key)
    _require(isinstance(value, list), f"'{key}' must be a list")
    _require(
        len(value) == exact_len,
        f"'{key}' must have exactly {exact_len} entries, got "
        f"{len(value) if isinstance(value, list) else '?'}",
    )
    out: List[int] = []
    for index, item in enumerate(value):
        _require(
            isinstance(item, int) and not isinstance(item, bool),
            f"'{key}[{index}]' must be an integer",
        )
        _require(
            lo <= item <= hi,
            f"'{key}[{index}]' must be in [{lo}, {hi}], got {item}",
        )
        out.append(item)
    return out


@dataclass(frozen=True)
class Request:
    """One validated request, ready for batching/caching/execution.

    ``config`` and ``operands`` are canonicalised dicts (sorted keys at
    serialisation time via :func:`repro.digest.canonical_json`), so equal
    requests always produce equal keys and byte-identical responses.
    """

    op: str
    config: Dict[str, Any]
    operands: Dict[str, Any]
    deadline_ms: Optional[float] = field(default=None, compare=False)

    def batch_key(self) -> str:
        if self.op in BATCHABLE_OPS:
            return f"{self.op}|{canonical_json(self.config)}"
        # Non-batchable ops never share a dispatch: key on identity.
        return f"{self.op}|{id(self)}"

    def cache_key(self, source_digest: str) -> str:
        body = canonical_json(
            {"config": self.config, "op": self.op, "operands": self.operands}
        )
        return payload_digest(source_digest, body)


def _parse_epoch_config(config: Dict[str, Any]) -> Tuple[int, int]:
    bits = _get_int(config, "bits", 1, MAX_BITS)
    slot_fs = _get_int(config, "slot_fs", 1_000, 10_000_000)
    return bits, slot_fs


def _parse_dpu_dot(payload: Dict[str, Any]) -> Request:
    config_in = payload.get("config")
    _require(isinstance(config_in, dict), "'config' must be an object")
    bits, slot_fs = _parse_epoch_config(config_in)
    length = _get_int(config_in, "length", 2, MAX_LENGTH)
    # The counting network is a balanced binary tree of balancers.
    _require(
        length & (length - 1) == 0,
        f"'length' must be a power of two, got {length}",
    )
    bipolar = _get_bool(config_in, "bipolar", False)
    n_max = 1 << bits
    # a operands are race-logic slots (n_max == "no pulse"), b operands
    # are pulse counts — the exact domain of DotProductUnit.run_counts.
    a_slots = _get_int_list(payload, "a_slots", length, 0, n_max)
    b_counts = _get_int_list(payload, "b_counts", length, 0, n_max)
    config = {
        "bipolar": bipolar,
        "bits": bits,
        "length": length,
        "slot_fs": slot_fs,
    }
    operands = {"a_slots": a_slots, "b_counts": b_counts}
    return Request(op="dpu.dot", config=config, operands=operands)


def _parse_fir(payload: Dict[str, Any], op: str) -> Request:
    config_in = payload.get("config")
    _require(isinstance(config_in, dict), "'config' must be an object")
    bits, slot_fs = _parse_epoch_config(config_in)
    coefficients = _get_number_list(
        config_in, "coefficients", MAX_TAPS, -1.0, 1.0
    )
    samples = _get_number_list(payload, "samples", MAX_SAMPLES, -1.0, 1.0)
    config = {
        "bits": bits,
        "coefficients": coefficients,
        "slot_fs": slot_fs,
    }
    return Request(op=op, config=config, operands={"samples": samples})


def _parse_pe_mac(payload: Dict[str, Any]) -> Request:
    config_in = payload.get("config")
    _require(isinstance(config_in, dict), "'config' must be an object")
    bits, slot_fs = _parse_epoch_config(config_in)
    values = _get_number_list(payload, "values", 3, 0.0, 1.0)
    _require(len(values) == 3, "'values' must be [in1, in2, in3]")
    config = {"bits": bits, "slot_fs": slot_fs}
    return Request(op="pe.mac", config=config, operands={"values": values})


def _parse_pe_matmul(payload: Dict[str, Any]) -> Request:
    config_in = payload.get("config")
    _require(isinstance(config_in, dict), "'config' must be an object")
    bits, slot_fs = _parse_epoch_config(config_in)

    def matrix(key: str) -> List[List[float]]:
        value = payload.get(key)
        _require(isinstance(value, list) and value, f"'{key}' must be a "
                 "non-empty list of rows")
        _require(
            len(value) <= MAX_MATMUL_DIM,
            f"'{key}' must have at most {MAX_MATMUL_DIM} rows",
        )
        width = None
        rows: List[List[float]] = []
        for r, row in enumerate(value):
            _require(isinstance(row, list), f"'{key}[{r}]' must be a list")
            if width is None:
                width = len(row)
                _require(
                    1 <= width <= MAX_MATMUL_DIM,
                    f"'{key}' rows must have 1..{MAX_MATMUL_DIM} entries",
                )
            _require(
                len(row) == width, f"'{key}' rows must all have equal length"
            )
            for c, item in enumerate(row):
                _require(
                    isinstance(item, (int, float))
                    and not isinstance(item, bool),
                    f"'{key}[{r}][{c}]' must be a number",
                )
                _require(
                    0.0 <= item <= 1.0,
                    f"'{key}[{r}][{c}]' must be in [0, 1]",
                )
            rows.append([float(item) for item in row])
        return rows

    a = matrix("a")
    b = matrix("b")
    _require(
        len(a[0]) == len(b),
        f"inner dimensions differ: a is {len(a)}x{len(a[0])}, "
        f"b is {len(b)}x{len(b[0])}",
    )
    config = {"bits": bits, "slot_fs": slot_fs}
    return Request(op="pe.matmul", config=config, operands={"a": a, "b": b})


_PARSERS = {
    "dpu.dot": _parse_dpu_dot,
    "fir.unary": lambda payload: _parse_fir(payload, "fir.unary"),
    "fir.binary": lambda payload: _parse_fir(payload, "fir.binary"),
    "pe.mac": _parse_pe_mac,
    "pe.matmul": _parse_pe_matmul,
}


def parse_request(payload: Any) -> Request:
    """Validate one JSON request body into a :class:`Request`.

    Raises :class:`ProtocolError` (→ HTTP 400) on any malformed input.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    op = payload.get("op")
    _require(isinstance(op, str), "'op' must be a string")
    parser = _PARSERS.get(op)
    if parser is None:
        raise ProtocolError(
            f"unknown op {op!r}; supported: {', '.join(OPS)}"
        )
    deadline_ms: Optional[float] = None
    if "deadline_ms" in payload:
        raw = payload["deadline_ms"]
        _require(
            isinstance(raw, (int, float)) and not isinstance(raw, bool),
            "'deadline_ms' must be a number",
        )
        _require(raw > 0, f"'deadline_ms' must be positive, got {raw}")
        deadline_ms = float(raw)
    request = parser(payload)
    if deadline_ms is not None:
        object.__setattr__(request, "deadline_ms", deadline_ms)
    return request
