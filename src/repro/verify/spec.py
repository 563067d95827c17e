"""Declarative netlist specifications — the fuzzing harness's genome.

A :class:`NetlistSpec` is a compact, JSON-serialisable recipe for a legal
circuit: an entry splitter, a sequence of standard cells, and for every
cell input exactly one wire drawn from the *pool* of previously created
output ports.  The pool indexing makes the single-driver discipline (one
wire per input, at most one sink per output) checkable mechanically, which
is what lets the generator promise lint-clean circuits by construction and
the shrinker rewrite specs without ever producing an illegal netlist.

Pool layout: index 0 and 1 are the entry splitter's ``q1``/``q2``; each
cell then appends its output ports in declaration order.  A spec is built
into a fresh :class:`~repro.pulsesim.netlist.Circuit` by :func:`build`;
every pool output no wire consumes gets a
:class:`~repro.pulsesim.probe.PulseRecorder`, so nothing a generated
circuit does is unobserved (and the ``dangling-output`` design rule is
satisfied by construction).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Type

from repro.errors import VerificationError
from repro.pulsesim.element import Element
from repro.pulsesim.export import default_cell_registry
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.probe import PulseRecorder
from repro.synth.builder import probe_unconsumed

#: Name of the stimulus entry cell every built circuit starts with.
ENTRY_NAME = "entry"
#: Number of pool outputs the entry splitter contributes (``q1``, ``q2``).
ENTRY_OUTPUTS = 2


@dataclass(frozen=True)
class WireSpec:
    """One wire: the pool index of the driving output plus its delay."""

    source: int
    delay: int = 0


@dataclass(frozen=True)
class CellSpec:
    """One cell: its registry kind and one :class:`WireSpec` per input
    port, in the cell's declared input-port order.

    ``params`` holds constructor keyword arguments as sorted
    ``(name, value)`` pairs — empty for cells built with their defaults,
    required for kinds like ``DropChannel`` whose constructors have
    mandatory arguments.
    """

    kind: str
    inputs: Tuple[WireSpec, ...]
    params: Tuple[Tuple[str, object], ...] = ()


@dataclass(frozen=True)
class NetlistSpec:
    """A complete generated test case: topology plus stimulus train."""

    cells: Tuple[CellSpec, ...] = ()
    stimulus: Tuple[int, ...] = ()
    name: str = "verify"

    # -- serialisation -------------------------------------------------------
    def to_json(self) -> Dict:
        """A plain-dict form that round-trips through :func:`spec_from_json`."""
        cells = []
        for cell in self.cells:
            entry: Dict = {
                "kind": cell.kind,
                "inputs": [[wire.source, wire.delay] for wire in cell.inputs],
            }
            if cell.params:
                entry["params"] = dict(cell.params)
            cells.append(entry)
        return {
            "name": self.name,
            "cells": cells,
            "stimulus": list(self.stimulus),
        }

    def key(self) -> str:
        """A stable content digest (used for corpus filenames and dedup)."""
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def spec_from_json(data: Dict) -> NetlistSpec:
    """Rebuild a :class:`NetlistSpec` from :meth:`NetlistSpec.to_json`."""
    try:
        cells = tuple(
            CellSpec(
                kind=cell["kind"],
                inputs=tuple(WireSpec(int(s), int(d)) for s, d in cell["inputs"]),
                params=tuple(sorted(cell.get("params", {}).items())),
            )
            for cell in data["cells"]
        )
        return NetlistSpec(
            cells=cells,
            stimulus=tuple(int(t) for t in data["stimulus"]),
            name=data.get("name", "verify"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise VerificationError(f"malformed netlist spec: {error}") from error


# -- cell metadata -------------------------------------------------------------
_REGISTRY: Optional[Dict[str, Type[Element]]] = None
_TEMPLATES: Dict[str, Element] = {}

#: Minimal constructor arguments for kinds whose constructors have no
#: defaults; used for throwaway template instances only.
_TEMPLATE_PARAMS: Dict[str, Dict[str, object]] = {
    "DropChannel": {"drop_rate": 0.0},
    "JitterChannel": {"std_fs": 0},
    "PulseIntegrator": {"slot_fs": 1, "n_max": 1},
    "RlMemoryCell": {"epoch_fs": 1},
}


def cell_registry() -> Dict[str, Type[Element]]:
    """The cell classes specs may reference (the export registry)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = default_cell_registry()
    return _REGISTRY


def template(kind: str) -> Element:
    """A throwaway instance of ``kind`` for port/delay introspection."""
    if kind not in _TEMPLATES:
        try:
            cls = cell_registry()[kind]
        except KeyError:
            known = ", ".join(sorted(cell_registry()))
            raise VerificationError(
                f"unknown cell kind {kind!r}; known kinds: {known}"
            ) from None
        _TEMPLATES[kind] = cls("_template", **_TEMPLATE_PARAMS.get(kind, {}))
    return _TEMPLATES[kind]


def input_ports(kind: str) -> Tuple[str, ...]:
    return template(kind).input_names


def output_ports(kind: str) -> Tuple[str, ...]:
    return template(kind).output_names


# -- pool bookkeeping ----------------------------------------------------------
def pool_offsets(spec: NetlistSpec) -> List[int]:
    """Pool index of each cell's first output (entry occupies 0..1)."""
    offsets = []
    cursor = ENTRY_OUTPUTS
    for cell in spec.cells:
        offsets.append(cursor)
        cursor += len(output_ports(cell.kind))
    return offsets


def pool_outputs(spec: NetlistSpec) -> List[Tuple[int, str]]:
    """``(cell_index, port)`` per pool slot; cell index ``-1`` is the entry."""
    outputs: List[Tuple[int, str]] = [(-1, "q1"), (-1, "q2")]
    for index, cell in enumerate(spec.cells):
        outputs.extend((index, port) for port in output_ports(cell.kind))
    return outputs


def used_sources(spec: NetlistSpec) -> Dict[int, Tuple[int, int]]:
    """Pool index -> ``(cell_index, input_index)`` of the consuming wire."""
    used: Dict[int, Tuple[int, int]] = {}
    for cell_index, cell in enumerate(spec.cells):
        for input_index, wire in enumerate(cell.inputs):
            used[wire.source] = (cell_index, input_index)
    return used


def validate(spec: NetlistSpec) -> None:
    """Check structural legality; raises :class:`VerificationError`.

    Legality means: known kinds, one wire per input port, every wire
    drawn from an *earlier* pool output, no output driving two sinks, no
    negative delays or stimulus times.  (This is the single-driver DAG
    discipline; lint-cleanliness of the built circuit follows from it plus
    the builder probing every unconsumed output.)
    """
    offsets = pool_offsets(spec)
    seen: Dict[int, Tuple[int, int]] = {}
    for cell_index, cell in enumerate(spec.cells):
        ports = input_ports(cell.kind)  # raises for unknown kinds
        if len(cell.inputs) != len(ports):
            raise VerificationError(
                f"cell {cell_index} ({cell.kind}) declares {len(ports)} "
                f"input ports but the spec wires {len(cell.inputs)}"
            )
        for input_index, wire in enumerate(cell.inputs):
            if wire.delay < 0:
                raise VerificationError(
                    f"cell {cell_index} input {input_index}: negative "
                    f"wire delay {wire.delay}"
                )
            if not 0 <= wire.source < offsets[cell_index]:
                raise VerificationError(
                    f"cell {cell_index} input {input_index}: source "
                    f"{wire.source} is not an earlier pool output "
                    f"(valid range 0..{offsets[cell_index] - 1})"
                )
            if wire.source in seen:
                raise VerificationError(
                    f"pool output {wire.source} drives two sinks "
                    f"(cells {seen[wire.source][0]} and {cell_index}); "
                    "SFQ outputs are single-flux-quantum"
                )
            seen[wire.source] = (cell_index, input_index)
    for time in spec.stimulus:
        if time < 0:
            raise VerificationError(f"negative stimulus time {time}")


# -- building ------------------------------------------------------------------
@dataclass
class Built:
    """A spec realised as a runnable circuit."""

    circuit: Circuit
    entry: Element
    #: Recorders on every unconsumed pool output, in pool order.
    probes: List[PulseRecorder] = field(default_factory=list)
    #: ``(element, port)`` per pool slot, aligned with :func:`pool_outputs`.
    pool: List[Tuple[Element, str]] = field(default_factory=list)


def build(spec: NetlistSpec) -> Built:
    """Materialise a validated spec into a fresh circuit.

    Cells are named ``c0``, ``c1``, ... in spec order (the entry splitter
    is ``entry``), so structurally equal specs build circuits with
    byte-identical netlist exports.
    """
    validate(spec)
    from repro.cells.interconnect import Splitter

    registry = cell_registry()
    circuit = Circuit(spec.name)
    entry = circuit.add(Splitter(ENTRY_NAME))
    pool: List[Tuple[Element, str]] = [(entry, "q1"), (entry, "q2")]
    for index, cell_spec in enumerate(spec.cells):
        try:
            element = registry[cell_spec.kind](f"c{index}",
                                               **dict(cell_spec.params))
        except TypeError as error:
            raise VerificationError(
                f"cell {index} ({cell_spec.kind}): bad constructor "
                f"params {dict(cell_spec.params)!r}: {error}"
            ) from error
        circuit.add(element)
        for port, wire in zip(element.input_names, cell_spec.inputs):
            source, source_port = pool[wire.source]
            circuit.connect(source, source_port, element, port,
                            delay=wire.delay)
        pool.extend((element, port) for port in element.output_names)
    # Shared total-observability helper (repro.synth.builder): every
    # output no wire consumes gets a recorder, so the dangling-output
    # design rule holds by construction.
    probes = probe_unconsumed(circuit, pool, used_sources(spec))
    return Built(circuit=circuit, entry=entry, probes=probes, pool=pool)


# -- spec transforms (oracles and the shrinker build on these) -----------------
def shift_stimulus(spec: NetlistSpec, delta: int) -> NetlistSpec:
    """All stimulus times displaced by ``delta`` femtoseconds."""
    return replace(
        spec, stimulus=tuple(time + delta for time in spec.stimulus)
    )


def swap_cell_inputs(spec: NetlistSpec, cell_index: int,
                     first: int = 0, second: int = 1) -> NetlistSpec:
    """Exchange which sources feed two input ports of one cell."""
    cell = spec.cells[cell_index]
    inputs = list(cell.inputs)
    inputs[first], inputs[second] = inputs[second], inputs[first]
    cells = list(spec.cells)
    cells[cell_index] = replace(cell, inputs=tuple(inputs))
    return replace(spec, cells=tuple(cells))


def splice_cell(spec: NetlistSpec, cell_index: int, input_index: int,
                kind: str,
                params: Tuple[Tuple[str, object], ...] = ()) -> NetlistSpec:
    """Insert a single-input/single-output cell into one wire.

    The new cell lands immediately before ``cell_index``, takes over the
    spliced wire (source and delay), and feeds the original sink through a
    zero-delay wire.  Pool indices of every later output shift by one;
    sources referencing them are remapped.
    """
    if len(input_ports(kind)) != 1 or len(output_ports(kind)) != 1:
        raise VerificationError(
            f"can only splice 1-in/1-out cells, not {kind!r}"
        )
    offsets = pool_offsets(spec)
    insert_at = offsets[cell_index]  # pool slot of the new cell's output

    def remap(source: int) -> int:
        return source + 1 if source >= insert_at else source

    original = spec.cells[cell_index].inputs[input_index]
    new_cells: List[CellSpec] = list(spec.cells[:cell_index])
    new_cells.append(CellSpec(kind=kind, inputs=(original,),
                              params=tuple(sorted(params))))
    sink_inputs = [
        WireSpec(insert_at, 0) if index == input_index
        else replace(wire, source=remap(wire.source))
        for index, wire in enumerate(spec.cells[cell_index].inputs)
    ]
    new_cells.append(replace(spec.cells[cell_index],
                             inputs=tuple(sink_inputs)))
    for cell in spec.cells[cell_index + 1:]:
        new_cells.append(replace(cell, inputs=tuple(
            replace(wire, source=remap(wire.source)) for wire in cell.inputs
        )))
    return replace(spec, cells=tuple(new_cells))


def remove_cell(spec: NetlistSpec, cell_index: int) -> NetlistSpec:
    """Delete a *leaf* cell (none of its outputs consumed) and remap.

    Raises :class:`VerificationError` if the cell still drives anything.
    """
    offsets = pool_offsets(spec)
    start = offsets[cell_index]
    width = len(output_ports(spec.cells[cell_index].kind))
    consumed = used_sources(spec)
    for slot in range(start, start + width):
        if slot in consumed:
            raise VerificationError(
                f"cell {cell_index} output (pool {slot}) still drives "
                f"cell {consumed[slot][0]}; only leaf cells are removable"
            )

    def remap(source: int) -> int:
        return source - width if source >= start + width else source

    new_cells = [
        replace(cell, inputs=tuple(
            replace(wire, source=remap(wire.source)) for wire in cell.inputs
        ))
        for index, cell in enumerate(spec.cells)
        if index != cell_index
    ]
    return replace(spec, cells=tuple(new_cells))
