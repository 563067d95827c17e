"""The compute backend: validated requests in, canonical result dicts out.

One :class:`ComputeEngine` owns the compiled hardware instances.  DPU
circuits are built and sealed once per canonical config (an LRU keeps the
working set bounded) and every subsequent request for that config reuses
the sealed netlist — the serving layer's whole latency story depends on
never re-compiling on the hot path.

``dpu.dot`` executes *groups*: N requests become one
:meth:`repro.core.dpu.DotProductUnit.run_counts_batch` call, which runs
each request as its own sealed run, bit-identical to a per-request
scalar run (the differential tests in ``tests/serve`` and the verify
oracle hold this line).  Model
ops (``fir.*``, ``pe.*``) evaluate per request — they are closed-form
and cost microseconds, so lanes would buy nothing.

Everything here is synchronous and picklable-state-free so the same
class serves both execution tiers: in-process threads and
:class:`repro.parallel.ProcessActor` workers (each worker builds its own
engine; memoisation is per-process).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # heavy import kept off the module-load path
    from repro.core.dpu import DotProductUnit

from repro.digest import canonical_json
from repro.encoding.epoch import EpochSpec
from repro.errors import ConfigurationError

#: Compiled-circuit LRU size: distinct DPU configs kept warm per engine.
DEFAULT_MAX_CIRCUITS = 8


def _float(value: Any) -> float:
    """Plain python float (canonical JSON rejects numpy scalars)."""
    return float(value)


class ComputeEngine:
    """Executes request groups against memoised hardware instances."""

    def __init__(self, max_circuits: int = DEFAULT_MAX_CIRCUITS):
        if max_circuits < 1:
            raise ConfigurationError(
                f"max_circuits must be >= 1, got {max_circuits}"
            )
        self._max_circuits = max_circuits
        self._dpus: "OrderedDict[str, DotProductUnit]" = OrderedDict()

    # -- compiled-instance memoisation ----------------------------------------
    def _dpu(self, config: Dict[str, Any]) -> "DotProductUnit":
        key = canonical_json(config)
        unit = self._dpus.get(key)
        if unit is not None:
            self._dpus.move_to_end(key)
            return unit
        from repro.core.dpu import DotProductUnit

        epoch = EpochSpec(bits=config["bits"], slot_fs=config["slot_fs"])
        unit = DotProductUnit(
            epoch, length=config["length"], bipolar=config["bipolar"]
        )
        self._dpus[key] = unit
        while len(self._dpus) > self._max_circuits:
            self._dpus.popitem(last=False)
        return unit

    def warm(self, op: str, config: Dict[str, Any]) -> bool:
        """Pre-compile the instance a config needs (benchmark warmup)."""
        if op == "dpu.dot":
            self._dpu(config)
        return True

    # -- execution --------------------------------------------------------------
    def execute_group(
        self,
        op: str,
        config: Dict[str, Any],
        operands_list: List[Dict[str, Any]],
    ) -> List[Dict[str, Any]]:
        """Run every request of one batch group; results in request order.

        All requests in a group share ``op`` and ``config`` (that is what
        a batch key means).  For ``dpu.dot`` the group is one
        ``run_counts_batch`` call, one sealed run per request; for model
        ops the group always has one entry and evaluates directly.
        """
        if not operands_list:
            return []
        if op == "dpu.dot":
            return self._run_dpu_dot(config, operands_list)
        if op in ("fir.unary", "fir.binary"):
            return [
                self._run_fir(op, config, operands)
                for operands in operands_list
            ]
        if op == "pe.mac":
            return [
                self._run_pe_mac(config, operands)
                for operands in operands_list
            ]
        if op == "pe.matmul":
            return [
                self._run_pe_matmul(config, operands)
                for operands in operands_list
            ]
        raise ConfigurationError(f"engine cannot execute op {op!r}")

    def _run_dpu_dot(
        self, config: Dict[str, Any], operands_list: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        unit = self._dpu(config)
        a_rows = [operands["a_slots"] for operands in operands_list]
        b_rows = [operands["b_counts"] for operands in operands_list]
        counts = unit.run_counts_batch(a_rows, b_rows)
        return [{"count": count} for count in counts]

    def _run_fir(
        self, op: str, config: Dict[str, Any], operands: Dict[str, Any]
    ) -> Dict[str, Any]:
        fir: Any
        if op == "fir.unary":
            from repro.core.fir import UnaryFirFilter

            epoch = EpochSpec(bits=config["bits"], slot_fs=config["slot_fs"])
            fir = UnaryFirFilter(epoch, config["coefficients"], seed=0)
        else:
            from repro.core.fir import BinaryFirFilter

            fir = BinaryFirFilter(config["bits"], config["coefficients"], seed=0)
        outputs = fir.process(operands["samples"])
        return {"outputs": [_float(value) for value in outputs]}

    def _run_pe_mac(
        self, config: Dict[str, Any], operands: Dict[str, Any]
    ) -> Dict[str, Any]:
        from repro.core.pe import PEModel

        epoch = EpochSpec(bits=config["bits"], slot_fs=config["slot_fs"])
        in1, in2, in3 = operands["values"]
        return {"value": _float(PEModel(epoch).mac(in1, in2, in3))}

    def _run_pe_matmul(
        self, config: Dict[str, Any], operands: Dict[str, Any]
    ) -> Dict[str, Any]:
        import numpy as np

        from repro.core.pe import PEArray

        epoch = EpochSpec(bits=config["bits"], slot_fs=config["slot_fs"])
        a = np.asarray(operands["a"], dtype=float)
        b = np.asarray(operands["b"], dtype=float)
        array = PEArray(epoch, rows=a.shape[0], cols=b.shape[1])
        product = array.matmul(a, b)
        return {
            "values": [
                [_float(value) for value in row] for row in product
            ]
        }
