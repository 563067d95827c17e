"""Circuit container: elements, wires, probes.

A :class:`Circuit` owns a set of :class:`~repro.pulsesim.element.Element`
cells and the directed wires between their ports.  Wires may carry a
propagation delay (used to model JTL/PTL interconnect without instantiating
a cell per segment).  Probes subscribe to output ports and record every
pulse emitted there.

Once construction is finished a circuit can be *sealed* with
:meth:`Circuit.seal`: topology (elements and wires) becomes immutable and
the netlist is compiled into the flat integer-indexed dispatch tables the
sealed simulator kernel runs on (:mod:`repro.pulsesim.kernel`).  Probes may
still be attached after sealing — observability is not topology — which
simply triggers a recompile on the next run.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import NetlistError
from repro.pulsesim.element import Element


@dataclass
class Wire:
    """A directed connection from an output port to an input port."""

    source: Element
    source_port: str
    sink: Element
    sink_port: str
    delay: int = 0

    def __repr__(self) -> str:
        delay = f", {self.delay} fs" if self.delay else ""
        return (
            f"<Wire {self.source.name}.{self.source_port} -> "
            f"{self.sink.name}.{self.sink_port}{delay}>"
        )


@dataclass
class _OutputTap:
    """Internal record of a probe attached to an output port."""

    probe: object
    source: Element
    source_port: str


class Circuit:
    """A netlist of SFQ cells.

    Elements are added with :meth:`add`, wired with :meth:`connect`, and
    observed with :meth:`probe`.  The circuit is passive; simulation is
    driven by :class:`~repro.pulsesim.simulator.Simulator`.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.elements: List[Element] = []
        self._names: Dict[str, Element] = {}
        self._fanout: Dict[Tuple[int, str], List[Wire]] = {}
        self._fanin: Dict[Tuple[int, str], List[Wire]] = {}
        self._taps: Dict[Tuple[int, str], List[_OutputTap]] = {}
        #: Bumped on every structural/observability change; the compiled
        #: kernel tables (:mod:`repro.pulsesim.kernel`) are tagged with the
        #: version they were built from and rebuilt lazily on mismatch.
        self._version = 0
        self._sealed = False
        self._compiled = None  # repro.pulsesim.kernel.CompiledTables
        #: Persistent per-(element, input port) opcode programs and
        #: per-element emission tables.  The kernel compiler reuses these
        #: objects across recompiles, patching contents in place, so queued
        #: events referencing a program can never go stale.
        self._ops: Dict[Tuple[int, str], list] = {}
        self._emit_tables: Dict[int, dict] = {}
        self._batch_compiled = None  # repro.pulsesim.batch.BatchProgram

    # -- construction --------------------------------------------------------
    def _mutate_topology(self, what: str) -> None:
        if self._sealed:
            raise NetlistError(
                f"circuit {self.name!r} is sealed; cannot {what} "
                "(seal() freezes topology so the compiled kernel tables stay valid)"
            )
        self._version += 1
        self._compiled = None

    def add(self, element: Element) -> Element:
        """Register ``element`` and return it (for fluent construction)."""
        self._mutate_topology("add an element")
        if element.name in self._names:
            raise NetlistError(
                f"duplicate element name {element.name!r} in circuit {self.name!r}"
            )
        if element.circuit is not None:
            raise NetlistError(f"{element!r} already belongs to a circuit")
        element._circuit = weakref.ref(self)
        self.elements.append(element)
        self._names[element.name] = element
        return element

    def __getitem__(self, name: str) -> Element:
        try:
            return self._names[name]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def connect(
        self,
        source: Element,
        source_port: str,
        sink: Element,
        sink_port: str,
        delay: int = 0,
    ) -> Wire:
        """Wire ``source.source_port`` to ``sink.sink_port``.

        ``delay`` (femtoseconds) models interconnect propagation time.
        Output ports may fan out to several sinks; in real RSFQ that needs a
        splitter cell, so structural netlists should add explicit splitters
        when JJ counts matter and rely on fanout only for test scaffolding.
        """
        self._mutate_topology("connect a wire")
        self._check_owned(source)
        self._check_owned(sink)
        source.check_output(source_port)
        sink.input_priority(sink_port)  # raises for unknown input ports
        if delay < 0:
            raise NetlistError(f"wire delay must be >= 0, got {delay}")
        wire = Wire(source, source_port, sink, sink_port, delay)
        self._fanout.setdefault((id(source), source_port), []).append(wire)
        self._fanin.setdefault((id(sink), sink_port), []).append(wire)
        return wire

    def probe(self, source: Element, source_port: str, probe=None):
        """Attach a probe to an output port and return it.

        Without an explicit ``probe`` object a fresh
        :class:`~repro.pulsesim.probe.PulseRecorder` is created.
        """
        from repro.pulsesim.probe import PulseRecorder

        self._check_owned(source)
        source.check_output(source_port)
        if probe is None:
            probe = PulseRecorder(f"{source.name}.{source_port}")
        label = getattr(probe, "label", None)
        for tap in self._taps.get((id(source), source_port), ()):
            if getattr(tap.probe, "label", None) == label:
                raise NetlistError(
                    f"port {source.name}.{source_port} already has a probe "
                    f"named {label!r}; give the second recorder a distinct label"
                )
        tap = _OutputTap(probe, source, source_port)
        self._taps.setdefault((id(source), source_port), []).append(tap)
        # Probes are observability, not topology: they are legal on sealed
        # circuits, but invalidate any compiled dispatch tables.
        self._version += 1
        self._compiled = None
        return probe

    def detach_probe(self, probe) -> bool:
        """Remove a probe attached with :meth:`probe`.

        Returns whether the probe was found.  Like attaching, detaching is
        legal on sealed circuits and invalidates compiled dispatch tables.
        """
        for key, taps in list(self._taps.items()):
            for tap in taps:
                if tap.probe is probe:
                    taps.remove(tap)
                    if not taps:
                        del self._taps[key]
                    self._version += 1
                    self._compiled = None
                    return True
        return False

    def _check_owned(self, element: Element) -> None:
        if element.circuit is not self:
            raise NetlistError(f"{element!r} does not belong to circuit {self.name!r}")

    # -- sealing / compilation ------------------------------------------------
    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` has frozen this circuit's topology."""
        return self._sealed

    def seal(self) -> "Circuit":
        """Freeze the topology and compile the fast-path dispatch tables.

        After sealing, :meth:`add` and :meth:`connect` raise
        :class:`~repro.errors.NetlistError` and :meth:`fanout` returns
        immutable tuples.  :meth:`probe` remains legal (observability only);
        attaching one triggers a lazy recompile.  Sealing twice is a no-op;
        the method returns ``self`` for fluent use::

            circuit = build_netlist().seal()
        """
        if not self._sealed:
            self._sealed = True
            # Freeze the per-port wire lists so no caller can alias-mutate
            # routing; iter_wires/fanout hand these tuples out directly.
            for key, wires in self._fanout.items():
                self._fanout[key] = tuple(wires)
            for key, wires in self._fanin.items():
                self._fanin[key] = tuple(wires)
            from repro.pulsesim.kernel import compile_circuit

            compile_circuit(self)
        return self

    def seal_batch(self):
        """Seal the circuit and return its compiled batch program.

        The :class:`~repro.pulsesim.batch.BatchProgram` is cached against
        the circuit version, so attaching a probe (which bumps the
        version) triggers a recompile with the new tap index on the next
        call.  :class:`~repro.pulsesim.batch.BatchSimulator` calls this at
        construction; the returned program is shared by all simulators of
        the same circuit version.
        """
        self.seal()
        cached = self._batch_compiled
        if cached is None or cached.version != self._version:
            from repro.pulsesim.batch import compile_batch

            cached = compile_batch(self)
            self._batch_compiled = cached
        return cached

    # -- simulation support ---------------------------------------------------
    def fanout(self, source: Element, source_port: str) -> Sequence[Wire]:
        """Wires leaving ``source.source_port`` (empty if none).

        Returns a defensive copy before :meth:`seal` and the frozen tuple
        afterwards, so callers can never alias-mutate the routing tables.
        """
        wires = self._fanout.get((id(source), source_port))
        if self._sealed:
            return wires if wires is not None else ()
        return list(wires) if wires is not None else []

    def _fanout_raw(self, source: Element, source_port: str) -> Sequence[Wire]:
        """Internal zero-copy fanout lookup for the simulator hot loop."""
        return self._fanout.get((id(source), source_port), ())

    # -- introspection (linting, export, debugging) ---------------------------
    @property
    def wires(self) -> List[Wire]:
        """Every wire in the circuit, in insertion order per source port."""
        return list(self.iter_wires())

    def iter_wires(self) -> Iterator[Wire]:
        """Iterate over all wires without materialising a list."""
        for wires in self._fanout.values():
            yield from wires

    def wires_into(self, sink: Element, sink_port: str) -> List[Wire]:
        """Wires arriving at ``sink.sink_port`` (the fan-in of one input).

        Served from a per-port index maintained by :meth:`connect`, so the
        lookup is O(fan-in) rather than a scan of every wire (the linter
        checks unmerged fan-in over all ports of all cells).  Wires appear
        in the order the :meth:`connect` calls were made.
        """
        return list(self._fanin.get((id(sink), sink_port), ()))

    def probed_ports(self) -> List[Tuple[Element, str]]:
        """``(element, output_port)`` pairs that have at least one probe."""
        return [
            (taps[0].source, taps[0].source_port)
            for taps in self._taps.values()
            if taps
        ]

    def notify_probes(self, source: Element, source_port: str, time: int) -> None:
        for tap in self._taps.get((id(source), source_port), ()):
            tap.probe.record(time)

    def reset(self) -> None:
        """Reset all elements and probes for a fresh run."""
        for element in self.elements:
            element.reset()
        for taps in self._taps.values():
            for tap in taps:
                tap.probe.reset()

    @property
    def jj_count(self) -> int:
        """Total Josephson junctions across all cells (the area metric)."""
        return sum(element.jj_count for element in self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Circuit {self.name!r}: {len(self.elements)} elements, "
            f"{self.jj_count} JJs>"
        )
