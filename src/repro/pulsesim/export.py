"""Netlist inspection, export, and re-import.

The paper's artifact is "a small DPU netlist" for a rudimentary testing
environment; this module provides the equivalent view of any circuit built
here: a JSON-serialisable description (cells, wires, probes, JJ budgets)
and a Graphviz DOT rendering for schematics.

Output order is deterministic regardless of construction order: cells
sort by name, wires by (source, source port, sink, sink port, delay),
probes by (cell, port, label) — so two structurally identical circuits
export byte-identical descriptions, and descriptions diff cleanly across
refactors.

:func:`import_netlist` is the inverse of :func:`netlist_description`: it
reconstructs a *runnable* circuit — cells rebuilt from their embedded
constructor parameters, wires rewired, recorder probes reattached — so a
description can be archived, diffed, shipped to another process, and
re-simulated.  ``describe -> import -> describe`` is byte-stable, a
property the :mod:`repro.verify` conformance harness checks on randomly
generated netlists.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from typing import Container, Dict, Iterator, List, Optional, Tuple, Type

from repro.errors import NetlistError, ReproError
from repro.pulsesim.element import Element
from repro.pulsesim.netlist import Circuit


def _wire_key(wire) -> tuple:
    return (
        wire.source.name,
        wire.source_port,
        wire.sink.name,
        wire.sink_port,
        wire.delay,
    )


def _sorted_wires(circuit: Circuit) -> List:
    wires = [
        wire
        for element in circuit.elements
        for port in element.output_names
        for wire in circuit.fanout(element, port)
    ]
    wires.sort(key=_wire_key)
    return wires


def _sorted_probes(circuit: Circuit) -> List[tuple]:
    """``(cell_name, port, label, probe_type)`` per attached probe, sorted."""
    probes = []
    for element, port in circuit.probed_ports():
        for tap in circuit._taps.get((id(element), port), ()):
            label = getattr(tap.probe, "label", None) or ""
            probes.append((element.name, port, label, type(tap.probe).__name__))
    probes.sort()
    return probes


def netlist_description(circuit: Circuit) -> Dict:
    """A JSON-serialisable description of a circuit.

    Contains every cell (type, JJ count, input/output ports), every wire
    (source cell/port -> sink cell/port, delay), and every attached probe
    (observability taps, including trace sessions), plus totals.
    """
    cells = []
    for element in sorted(circuit.elements, key=lambda e: e.name):
        cell = {
            "name": element.name,
            "type": type(element).__name__,
            "jj_count": element.jj_count,
            "inputs": list(element.input_names),
            "outputs": list(element.output_names),
        }
        try:
            cell["params"] = element.params()
        except NetlistError:
            # The cell does not expose its constructor arguments; the
            # description stays readable but cannot be re-imported.
            pass
        cells.append(cell)
    wires = [
        {
            "from": f"{wire.source.name}.{wire.source_port}",
            "to": f"{wire.sink.name}.{wire.sink_port}",
            "delay_fs": wire.delay,
        }
        for wire in _sorted_wires(circuit)
    ]
    probes = [
        {
            "port": f"{cell}.{port}",
            "label": label,
            "type": probe_type,
        }
        for cell, port, label, probe_type in _sorted_probes(circuit)
    ]
    return {
        "name": circuit.name,
        "cells": cells,
        "wires": wires,
        "probes": probes,
        "cell_count": len(cells),
        "wire_count": len(wires),
        "probe_count": len(probes),
        "jj_count": circuit.jj_count,
    }


# -- re-import -----------------------------------------------------------------
def default_cell_registry() -> Dict[str, Type[Element]]:
    """Cell classes :func:`import_netlist` can instantiate, keyed by the
    ``type`` name :func:`netlist_description` emits.

    Covers the whole standard-cell library (:mod:`repro.cells`), the
    composite cells of the shipped blocks (balancers, integrators, RL
    memory cells) and the fault channels (:mod:`repro.pulsesim.faults`).
    Callers with custom cells pass
    ``registry={**default_cell_registry(), "MyCell": MyCell}``.
    """
    from repro.cells.bff import Bff
    from repro.cells.clocked import ClockedAnd, ClockedOr, ClockedXor
    from repro.cells.interconnect import IdealMerger, Jtl, Merger, Splitter
    from repro.cells.logic import FirstArrival, Inverter, LastArrival
    from repro.cells.mux import Demux, Mux
    from repro.cells.noc import NocLink
    from repro.cells.storage import Dff, Dff2, Ndro
    from repro.cells.toggle import Tff, Tff2
    from repro.core.balancer import Balancer, BffRoutingUnit
    from repro.core.buffer import PulseIntegrator, RlMemoryCell
    from repro.pulsesim.faults import DropChannel, JitterChannel

    classes = (
        Bff, ClockedAnd, ClockedOr, ClockedXor, IdealMerger, Jtl, Merger,
        Splitter, FirstArrival, Inverter, LastArrival, Demux, Mux, Dff,
        Dff2, Ndro, Tff, Tff2, DropChannel, JitterChannel, NocLink,
        Balancer, BffRoutingUnit, PulseIntegrator, RlMemoryCell,
    )
    return {cls.__name__: cls for cls in classes}


def split_endpoint(
    reference: str, names: Container[str]
) -> Optional[Tuple[str, str]]:
    """Split a ``"cell.port"`` reference into ``(cell name, port)``.

    Cell names may themselves contain dots, so the rightmost dot whose
    prefix is in ``names`` splits it: the longest known cell name wins.
    None when no prefix names a cell.
    """
    index = reference.rfind(".")
    while index >= 0:
        if reference[:index] in names:
            return reference[:index], reference[index + 1:]
        index = reference.rfind(".", 0, index)
    return None


def _element_port(reference: str, names: Dict[str, Element]) -> tuple:
    """``(element, port)`` of an exported endpoint of a circuit being built."""
    split = split_endpoint(reference, names)
    if split is None:
        raise NetlistError(
            f"wire endpoint {reference!r} does not name a known cell"
        )
    return names[split[0]], split[1]


def _check_delay(value, where: str) -> None:
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < 0:
        raise NetlistError(
            f"cannot import {where}: delay must be a non-negative integer "
            f"number of femtoseconds, got {value!r}"
        )


@contextmanager
def _entry(where: str) -> Iterator[None]:
    """Re-raise a malformed entry's raw error as a :class:`NetlistError`
    naming the entry."""
    try:
        yield
    except NetlistError:
        raise
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise NetlistError(
            f"cannot import {where}: {type(exc).__name__}: {exc}"
        ) from None


def _entries(description: Dict, key: str) -> list:
    entries = description[key]
    if not isinstance(entries, list):
        raise NetlistError(
            f"netlist {key!r} must be a list, got {type(entries).__name__}"
        )
    return entries


def import_netlist(
    description: Dict,
    registry: Optional[Dict[str, Type[Element]]] = None,
) -> Circuit:
    """Reconstruct a runnable :class:`Circuit` from a
    :func:`netlist_description` dict (the exact inverse operation).

    Cells are rebuilt through ``registry`` (default:
    :func:`default_cell_registry`) from their embedded ``params``; wires are
    rewired with their delays; recorder probes (``PulseRecorder`` /
    ``WaveformProbe``) are reattached under their original labels.  Probe
    entries of any other type (e.g. trace-session taps) describe transient
    observers and raise — a description containing them is a snapshot of a
    *traced* run, not an archivable netlist.

    The description is untrusted input (shard workers rebuild their piece
    through it): a malformed document — unknown cell types, cells exported
    without ``params``, constructor arguments the cell rejects, a cell
    ``delay`` or wire ``delay_fs`` that is not a non-negative integer,
    unknown probe types, malformed wire endpoints, or entries of the wrong
    shape — raises :class:`~repro.errors.NetlistError` naming the bad
    entry.  Round trip: ``netlist_description(import_netlist(d)) == d``.
    """
    from repro.pulsesim.probe import PulseRecorder, WaveformProbe

    registry = registry if registry is not None else default_cell_registry()
    with _entry("the description"):
        circuit = Circuit(description["name"])
        cells = _entries(description, "cells")
        wires = _entries(description, "wires")
        probes = _entries(description, "probes")
    for index, cell in enumerate(cells):
        with _entry(f"cells[{index}]"):
            kind = cell["type"]
            try:
                factory = registry[kind]
            except KeyError:
                known = ", ".join(sorted(registry))
                raise NetlistError(
                    f"cannot import cell {cell['name']!r}: unknown type "
                    f"{kind!r} (registry knows: {known})"
                ) from None
            if "params" not in cell:
                raise NetlistError(
                    f"cannot import cell {cell['name']!r}: the description "
                    "carries no constructor params (the exporting cell did "
                    "not implement params())"
                )
            params = cell["params"]
            if "delay" in params:
                _check_delay(params["delay"], f"cell {cell['name']!r}")
            circuit.add(factory(cell["name"], **params))
    for index, wire in enumerate(wires):
        with _entry(f"wires[{index}]"):
            source, source_port = _element_port(wire["from"], circuit._names)
            sink, sink_port = _element_port(wire["to"], circuit._names)
            _check_delay(wire["delay_fs"], f"wire {wire['from']} -> {wire['to']}")
            circuit.connect(source, source_port, sink, sink_port,
                            delay=wire["delay_fs"])
    probe_factories = {
        "PulseRecorder": PulseRecorder,
        "WaveformProbe": WaveformProbe,
    }
    for index, probe in enumerate(probes):
        with _entry(f"probes[{index}]"):
            element, port = _element_port(probe["port"], circuit._names)
            try:
                factory = probe_factories[probe["type"]]
            except KeyError:
                raise NetlistError(
                    f"cannot import probe on {probe['port']}: type "
                    f"{probe['type']!r} is not a reconstructible recorder"
                ) from None
            circuit.probe(element, port, probe=factory(probe["label"]))
    return circuit


def cell_census(circuit: Circuit) -> Dict[str, int]:
    """Cell-type histogram (how many NDROs, mergers, ... the design uses)."""
    census: Dict[str, int] = {}
    for element in circuit.elements:
        census[type(element).__name__] = census.get(type(element).__name__, 0) + 1
    return census


def to_dot(circuit: Circuit) -> str:
    """A Graphviz DOT rendering of the netlist (cells as nodes).

    Probes render as dashed ellipses hanging off their tapped port, so a
    schematic shows where the observability taps sit.
    """
    lines: List[str] = [
        f'digraph "{circuit.name}" {{',
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for element in sorted(circuit.elements, key=lambda e: e.name):
        label = f"{element.name}\\n{type(element).__name__} ({element.jj_count} JJ)"
        lines.append(f'  "{element.name}" [label="{label}"];')
    for wire in _sorted_wires(circuit):
        attributes = f'taillabel="{wire.source_port}", headlabel="{wire.sink_port}"'
        if wire.delay:
            attributes += f', label="{wire.delay} fs"'
        lines.append(
            f'  "{wire.source.name}" -> "{wire.sink.name}" [{attributes}];'
        )
    for index, (cell, port, label, _type) in enumerate(_sorted_probes(circuit)):
        node = f"probe{index}"
        text = label or f"{cell}.{port}"
        lines.append(
            f'  "{node}" [label="{text}", shape=ellipse, style=dashed];'
        )
        lines.append(
            f'  "{cell}" -> "{node}" [taillabel="{port}", style=dashed];'
        )
    lines.append("}")
    return "\n".join(lines)
