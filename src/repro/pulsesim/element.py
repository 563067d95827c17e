"""Base class for behavioural SFQ cells.

An :class:`Element` is a named cell with declared input and output ports.
When a pulse reaches an input port, the simulator calls
:meth:`Element.handle`; the cell updates its internal state and may emit
pulses on its output ports via :meth:`Element.emit`.  Emission is routed by
the owning :class:`~repro.pulsesim.netlist.Circuit`.

Simultaneous pulses are a first-class concern in SFQ (merger collisions,
balancer coincidence).  Two mechanisms keep behaviour deterministic and
physical:

* every port carries a *priority*; events with equal timestamps are
  processed in priority order (e.g. an NDRO's reset beats its clock so a
  Race-Logic pulse landing exactly on a stream slot blocks that slot, the
  convention the paper's multiplier waveforms use), and
* cells that care about coincidence windows (merger dead time, the
  balancer's t_BFF transition) compare timestamps themselves.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import NetlistError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.pulsesim.simulator import Simulator


@dataclass(frozen=True)
class PortSpec:
    """Declaration of a cell port.

    Attributes:
        name: Port name, unique within the cell.
        priority: Tie-break rank for simultaneous events; lower runs first.
    """

    name: str
    priority: int = 0


class CellRole:
    """Structural roles a cell can declare for static analysis.

    The design-rule checker (:mod:`repro.lint`) reasons about netlists
    through these tags rather than concrete cell classes, so new cells
    participate in linting by declaring roles instead of patching rules.
    """

    #: The cell provides legal fanout (one input pulse, several outputs).
    SPLITTER = "splitter"
    #: The cell legally combines several pulse sources into one output.
    MERGER = "merger"
    #: The cell holds flux state and can absorb pulses: it breaks
    #: combinational loops and terminates timing paths.
    STORAGE = "storage"
    #: The cell only functions when a clock/readout port is driven; its
    #: clock ports are listed in ``Element.CLOCK_PORTS``.
    CLOCKED = "clocked"
    #: The cell is a pass-through buffer; a dangling output on it is an
    #: intentional termination, not a forgotten net.
    BUFFER = "buffer"
    #: The cell models temporal NoC transport between fabric partitions
    #: (serialization + per-hop latency + a bounded link FIFO); lint
    #: checks that such cells always carry a positive minimum latency —
    #: the lookahead the partitioned parallel engine synchronizes on.
    NOC = "noc"


class Element:
    """A behavioural SFQ cell participating in a :class:`Circuit`.

    Subclasses declare ``INPUTS`` and ``OUTPUTS`` as tuples of port names or
    :class:`PortSpec` objects, set :attr:`jj_count`, and implement
    :meth:`handle`.  State must live on the instance and be cleared by
    :meth:`reset` so a circuit can be re-simulated.  A cell whose
    behaviour is a finite-state machine derives from :class:`TableCell`
    instead and declares its transition table, which every kernel runs
    inline.
    """

    INPUTS: Tuple = ()
    OUTPUTS: Tuple = ()

    #: Structural roles (:class:`CellRole` tags) the lint rules consult.
    ROLES: frozenset = frozenset()

    #: Input ports that must be driven for the cell to function at all
    #: (clock / readout strobes); consulted by the ``no-clock-driver`` rule.
    CLOCK_PORTS: Tuple[str, ...] = ()

    #: Number of Josephson junctions in the cell (area model unit).
    jj_count: int = 0

    def __init__(self, name: str):
        self.name = name
        self.circuit = None  # set by Circuit.add
        self._input_specs: Dict[str, PortSpec] = {
            spec.name: spec for spec in map(self._as_spec, type(self).INPUTS)
        }
        self._output_names = tuple(
            spec.name for spec in map(self._as_spec, type(self).OUTPUTS)
        )

    @staticmethod
    def _as_spec(port) -> PortSpec:
        if isinstance(port, PortSpec):
            return port
        return PortSpec(str(port))

    @property
    def input_names(self) -> Tuple[str, ...]:
        return tuple(self._input_specs)

    @property
    def output_names(self) -> Tuple[str, ...]:
        return self._output_names

    def input_priority(self, port: str) -> int:
        try:
            return self._input_specs[port].priority
        except KeyError:
            raise NetlistError(f"{self!r} has no input port {port!r}") from None

    def check_output(self, port: str) -> None:
        if port not in self._output_names:
            raise NetlistError(f"{self!r} has no output port {port!r}")

    def has_role(self, role: str) -> bool:
        """Whether this cell declares the given :class:`CellRole` tag."""
        return role in type(self).ROLES

    def params(self) -> Dict[str, object]:
        """Constructor parameters (sans ``name``) needed to rebuild this cell.

        By convention every cell stores each ``__init__`` parameter under an
        instance attribute of the same name (``delay``, ``dead_time``,
        ``seed``, ...), so the generic implementation recovers them by
        inspecting the constructor signature.  Netlist export embeds the
        result and :func:`~repro.pulsesim.export.import_netlist` feeds it
        back to the constructor; cells that transform their arguments must
        override this method.  Raises :class:`~repro.errors.NetlistError`
        when a parameter cannot be recovered.
        """
        signature = inspect.signature(type(self).__init__)
        params: Dict[str, object] = {}
        for pname, parameter in signature.parameters.items():
            if pname in ("self", "name"):
                continue
            if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
                continue
            if not hasattr(self, pname):
                raise NetlistError(
                    f"{self!r} does not store constructor parameter {pname!r} "
                    "as an attribute; override params() to make the cell "
                    "netlist-exportable"
                )
            params[pname] = getattr(self, pname)
        return params

    @property
    def propagation_delay_fs(self) -> int:
        """Worst-case input-to-output delay of the cell.

        Cells store their delay on ``self.delay``; elements without one
        (pure behavioural models) contribute zero.
        """
        return getattr(self, "delay", 0)

    # -- simulation interface ------------------------------------------------
    def handle(self, sim: "Simulator", port: str, time: int) -> None:
        """React to a pulse arriving at ``port`` at ``time`` (femtoseconds)."""
        raise NotImplementedError

    def emit(self, sim: "Simulator", port: str, time: int) -> None:
        """Emit a pulse on an output port; the circuit fans it out."""
        sim.emit(self, port, time)

    def reset(self) -> None:
        """Clear internal state before a fresh simulation run."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


#: One transition-table row: ``(next_state, output ports pulsed)``.
Row = Tuple[int, Tuple[str, ...]]


class TableCell(Element):
    """A cell whose behaviour is a finite-state machine over one int state.

    Subclasses declare ``TRANSITIONS = {input_port: rows}`` with one
    :data:`Row` per state: a pulse on ``input_port`` while the cell is in
    state ``s`` moves it to ``rows[s][0]`` and emits one pulse on each
    port of ``rows[s][1]``, in order, ``delay`` femtoseconds later
    (emission order breaks same-time ties downstream).  The cell starts
    (and :meth:`reset` returns it) in state ``INITIAL``.  ``DEFAULT_DELAY``
    is the constructor's default ``delay``.

    :meth:`handle` interprets the table, which makes it the reference
    semantics; the sealed and batch compilers read the same table and run
    the cell inline, so each cell's behaviour is written exactly once.
    """

    TRANSITIONS: Dict[str, Tuple[Row, ...]] = {}
    INITIAL = 0
    DEFAULT_DELAY = 0
    #: ``port -> table_shape(rows)``, computed once at class definition
    #: (the compilers look it up for every cell of every compile).
    _shapes: Dict[str, tuple] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        table = cls.__dict__.get("TRANSITIONS")
        if table is None:
            return
        inputs = {cls._as_spec(port).name for port in cls.INPUTS}
        outputs = {cls._as_spec(port).name for port in cls.OUTPUTS}
        states = {len(rows) for rows in table.values()}
        valid = (
            set(table) == inputs
            and len(states) == 1
            and 0 <= cls.INITIAL < min(states)
            and all(
                0 <= nxt < len(rows) and set(outs) <= outputs
                for rows in table.values()
                for nxt, outs in rows
            )
        )
        if not valid:
            raise NetlistError(
                f"{cls.__name__}.TRANSITIONS must give every input port one "
                "(next_state, outputs) row per state, with next states in "
                "range and outputs among OUTPUTS"
            )
        cls._shapes = {port: table_shape(rows) for port, rows in table.items()}

    def __init__(self, name: str, delay: Optional[int] = None):
        super().__init__(name)
        self.delay = type(self).DEFAULT_DELAY if delay is None else delay
        self.state = self.INITIAL

    def handle(self, sim: "Simulator", port: str, time: int) -> None:
        self.state, outputs = self.TRANSITIONS[port][self.state]
        for output in outputs:
            self.emit(sim, output, time + self.delay)

    def reset(self) -> None:
        self.state = self.INITIAL


def table_shape(rows: Tuple[Row, ...]) -> tuple:
    """Classify one port's rows into the shape the fast kernels compile.

    * ``("fanout", outputs)``: one state; every pulse emits ``outputs``.
    * ``("store", state)``: no output; every state moves to ``state``.
    * ``("guard", state, output, fire_next, other_next)``: only ``state``
      emits, on the single port ``output``; a firing pulse moves to
      ``fire_next`` and any other pulse to ``other_next``, where None
      means the state is left unchanged.
    * ``("table",)``: anything else (state-dependent outputs or next
      states).
    """
    if len(rows) == 1:
        return ("fanout", rows[0][1])
    emitting = [state for state, (_next, outputs) in enumerate(rows) if outputs]
    if not emitting and len({nxt for nxt, _outputs in rows}) == 1:
        return ("store", rows[0][0])
    if len(emitting) == 1 and len(rows[emitting[0]][1]) == 1:
        fire = emitting[0]
        fire_next, (output,) = rows[fire]
        others = [
            (state, nxt) for state, (nxt, _outputs) in enumerate(rows)
            if state != fire
        ]
        if all(state == nxt for state, nxt in others):
            other_next = None
        elif len({nxt for _state, nxt in others}) == 1:
            other_next = others[0][1]
        else:
            return ("table",)
        return (
            "guard",
            fire,
            output,
            None if fire_next == fire else fire_next,
            other_next,
        )
    return ("table",)
