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
  balancer's coincidence and t_BFF windows) are timed table cells
  (:class:`TableCell`): gap bounds on the time since the cell's last
  emitting pulse pick the transition row.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import NetlistError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    import weakref

    from repro.pulsesim.netlist import Circuit
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
        #: Weak reference to the owning circuit, set by Circuit.add.
        self._circuit: Optional[weakref.ReferenceType[Circuit]] = None
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
    def circuit(self) -> Optional["Circuit"]:
        """The :class:`~repro.pulsesim.netlist.Circuit` this cell was added
        to, or None.  Held weakly, so a circuit and its cells form no
        reference cycle and are freed as soon as the circuit is dropped."""
        ref = self._circuit
        return None if ref is None else ref()

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
        params: Dict[str, object] = {}
        for pname in _constructor_params(type(self)):
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


@functools.lru_cache(maxsize=None)
def _constructor_params(cls: type) -> Tuple[str, ...]:
    """Names of ``cls.__init__``'s named parameters after ``name``, read
    once per class (:meth:`Element.params` runs once per exported cell)."""
    signature = inspect.signature(cls.__init__)
    return tuple(
        pname
        for pname, parameter in signature.parameters.items()
        if pname not in ("self", "name")
        and parameter.kind not in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD)
    )


#: One transition-table row: ``(next_state, output ports pulsed)``, or
#: ``(next_state, outputs, 1)`` for a row that also bumps the cell's counter.
Row = Tuple


class TableCell(Element):
    """A cell whose behaviour is a finite-state machine over one int state.

    Subclasses declare ``TRANSITIONS = {input_port: rows}`` with one
    :data:`Row` per state: a pulse on ``input_port`` while the cell is in
    state ``s`` moves it to ``rows[s][0]`` and emits one pulse on each
    port of ``rows[s][1]``, in order, ``delay`` femtoseconds later
    (emission order breaks same-time ties downstream).  The cell starts
    (and :meth:`reset` returns it) in state ``INITIAL``.  ``DEFAULT_DELAY``
    is the constructor's default ``delay``.

    A *timed* cell names up to two instance attributes in ``GUARDS``, each
    a gap bound in femtoseconds.  Guard ``i`` holds when the time since
    the cell's last emitting pulse (``_last_emit``; no guard holds before
    the first) is below its bound, and sets bit ``i`` of the guard bits;
    a pulse then takes row ``bits * n_states + state``, so each port lists
    its ``n_states`` rows once per guard-bit combination.  Every emitting
    pulse restamps ``_last_emit``, and a counted row adds one to the
    attribute named by ``COUNTER``.

    :meth:`handle` interprets the table, which makes it the reference
    semantics; the sealed and batch compilers read the same table and run
    the cell inline, so each cell's behaviour is written exactly once.
    """

    TRANSITIONS: Dict[str, Tuple[Row, ...]] = {}
    INITIAL = 0
    DEFAULT_DELAY = 0
    #: Instance attributes holding the gap bounds (fs) of a timed cell.
    GUARDS: Tuple[str, ...] = ()
    #: Instance attribute counted by the rows that bump it.
    COUNTER = ""
    #: Time of the last emitting pulse of a timed cell (None: none yet).
    _last_emit: Optional[int] = None
    #: States per guard-bit combination.
    _n_states = 1
    #: ``port -> table_shape(rows, guards)``, computed once at class
    #: definition (the compilers look it up for every cell of every compile).
    _shapes: Dict[str, tuple] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        table = cls.__dict__.get("TRANSITIONS")
        if table is None:
            return
        inputs = {cls._as_spec(port).name for port in cls.INPUTS}
        outputs = {cls._as_spec(port).name for port in cls.OUTPUTS}
        sizes = {len(rows) for rows in table.values()}
        guards = len(cls.GUARDS)
        n_states = min(sizes, default=0) >> guards
        counted = ((), (1,)) if guards and cls.COUNTER else ((),)
        valid = (
            set(table) == inputs
            and len(sizes) == 1
            and guards <= 2
            and n_states << guards == min(sizes)
            and 0 <= cls.INITIAL < n_states
            and all(
                0 <= row[0] < n_states and set(row[1]) <= outputs
                and tuple(row[2:]) in counted
                for rows in table.values()
                for row in rows
            )
        )
        if not valid:
            raise NetlistError(
                f"{cls.__name__}.TRANSITIONS must give every input port one "
                "(next_state, outputs) row per state and guard-bit "
                "combination, with next states in range, outputs among "
                "OUTPUTS, and counted rows only in a timed cell with a COUNTER"
            )
        cls._n_states = n_states
        cls._shapes = {
            port: table_shape(rows, guards) for port, rows in table.items()
        }

    def __init__(self, name: str, delay: Optional[int] = None):
        super().__init__(name)
        self.delay = type(self).DEFAULT_DELAY if delay is None else delay
        self.reset()

    def handle(self, sim: "Simulator", port: str, time: int) -> None:
        code = self.state
        guards = self.GUARDS
        if guards and self._last_emit is not None:
            gap = time - self._last_emit
            for bit, bound in enumerate(guards):
                if gap < getattr(self, bound):
                    code += self._n_states << bit
        row = self.TRANSITIONS[port][code]
        self.state = row[0]
        if len(row) > 2:
            setattr(self, self.COUNTER, getattr(self, self.COUNTER) + 1)
        if row[1] and guards:
            self._last_emit = time
        for output in row[1]:
            self.emit(sim, output, time + self.delay)

    def reset(self) -> None:
        self.state = self.INITIAL
        if self.GUARDS:
            self._last_emit = None
        if self.COUNTER:
            setattr(self, self.COUNTER, 0)


def table_shape(rows: Tuple[Row, ...], guards: int = 0) -> tuple:
    """Classify one port's rows into the shape the fast kernels compile.

    * ``("fanout", outputs)``: one state; every pulse emits ``outputs``.
    * ``("store", state)``: no output; every state moves to ``state``.
    * ``("guard", state, output, fire_next, other_next)``: only ``state``
      emits, on the single port ``output``; a firing pulse moves to
      ``fire_next`` and any other pulse to ``other_next``, where None
      means the state is left unchanged.
    * ``("table",)``: anything else (state-dependent outputs or next
      states).
    * ``("window", output, counted)``: one state and one guard (a merger's
      dead time); outside the guard a pulse emits on ``output``, inside it
      none does and, when ``counted``, each is counted.
    * ``("timed",)``: any other table with guards.
    """
    if guards:
        if (guards == 1 and len(rows) == 2 and len(rows[0]) == 2
                and len(rows[0][1]) == 1 and not rows[1][1]):
            return ("window", rows[0][1][0], len(rows[1]) > 2)
        return ("timed",)
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
