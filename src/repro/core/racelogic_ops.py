"""Race-Logic temporal operators (the substrate of [29, 51] the paper
extends in section 3.1).

Race Logic computes with pulse *arrival times*, so a handful of cells
cover a surprising amount of algebra:

* ``min(a, b)``  — a first-arrival (FA) gate: the earlier pulse wins;
* ``max(a, b)``  — a last-arrival (LA) coincidence gate;
* ``a + c``      — a delay chain of ``c`` slots (add-constant; general
  addition is what the paper's pulse streams are for);
* ``inhibit``    — pass ``a`` only if it beats ``b`` (the conditional
  primitive of dynamic-programming accelerators).

Both functional helpers (slot arithmetic) and structural netlist builders
(running on the pulse simulator) are provided, plus a composite
``RaceLogicAlu`` convenience wrapper.  These operators are what make the
integrator-buffered RL lanes of the FIR a *general* temporal datapath,
not just a delay line.
"""

from __future__ import annotations

from typing import Optional

from repro.cells.interconnect import Jtl
from repro.cells.logic import FirstArrival, LastArrival
from repro.encoding.epoch import EpochSpec
from repro.errors import ConfigurationError
from repro.models import technology as tech
from repro.pulsesim.block import Block
from repro.pulsesim.element import PortSpec, TableCell
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.simulator import Simulator


# -- functional slot arithmetic --------------------------------------------------
def min_slots(a: int, b: int) -> int:
    """Race-Logic minimum: the earlier arrival."""
    _check(a, b)
    return min(a, b)


def max_slots(a: int, b: int) -> int:
    """Race-Logic maximum: the later arrival."""
    _check(a, b)
    return max(a, b)


def add_constant(a: int, constant: int, n_max: int) -> int:
    """Race-Logic add-constant: delay by ``constant`` slots (saturating)."""
    _check(a)
    if constant < 0:
        raise ConfigurationError(f"constant must be >= 0, got {constant}")
    return min(a + constant, n_max)


def inhibit_slots(a: int, b: int) -> Optional[int]:
    """Pass ``a`` iff it strictly precedes ``b``; None otherwise."""
    _check(a, b)
    return a if a < b else None


def _check(*slots: int) -> None:
    for slot in slots:
        if slot < 0:
            raise ConfigurationError(f"Race-Logic slots must be >= 0, got {slot}")


# -- structural cells -----------------------------------------------------------
class Inhibit(TableCell):
    """Inhibit gate: output = A if A arrives strictly before B.

    A pulse on ``b`` poisons the gate for the rest of the epoch; ``reset``
    re-arms it.  (Built in RSFQ from an NDRO with the inverter-style
    blocking input; modelled behaviourally at the same JJ scale.)  State
    0 is armed; 1 is dead (blocked by ``b`` or already fired).
    """

    INPUTS = (
        PortSpec("reset", priority=0),
        PortSpec("b", priority=1),
        PortSpec("a", priority=2),
    )
    OUTPUTS = ("q",)
    jj_count = tech.JJ_NDRO
    DEFAULT_DELAY = tech.T_NDRO_FS
    TRANSITIONS = {
        "reset": ((0, ()), (0, ())),
        "b": ((1, ()), (1, ())),
        "a": ((1, ("q",)), (1, ())),
    }


def build_delay_chain(circuit: Circuit, name: str, n_slots: int, slot_fs: int) -> Block:
    """An add-constant operator: a JTL chain delaying by ``n_slots`` slots.

    Exposed ports: input ``a``, output ``q``.  One JTL per slot keeps the
    JJ model honest (this is why add-constant is cheap but general RL
    addition is not — the cost the paper's pulse streams remove).
    """
    if n_slots < 1:
        raise ConfigurationError(f"n_slots must be >= 1, got {n_slots}")
    block = Block(circuit, name)
    stages = [
        block.add(Jtl(block.subname(f"jtl{i}"), delay=slot_fs))
        for i in range(n_slots)
    ]
    for first, second in zip(stages, stages[1:]):
        circuit.connect(first, "q", second, "a")
    block.expose_input("a", stages[0], "a")
    block.expose_output("q", stages[-1], "q")
    return block


def max_pool2d_slots(slots, window: int = 2):
    """Race-Logic max pooling over a 2-D grid of arrival slots.

    CNN max pooling is *free* in Race Logic: the pooled value is simply
    the last pulse of the window, one LA gate per reduction (compare a
    binary comparator tree).  Non-overlapping ``window x window`` pooling,
    truncating ragged edges, matching the usual CNN convention.

    Returns the pooled grid (nested lists of slots).
    """
    import numpy as np

    grid = np.asarray(slots, dtype=np.int64)
    if grid.ndim != 2:
        raise ConfigurationError("max_pool2d_slots expects a 2-D grid")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if np.any(grid < 0):
        raise ConfigurationError("Race-Logic slots must be >= 0")
    rows = grid.shape[0] // window
    cols = grid.shape[1] // window
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid smaller than the pooling window")
    pooled = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            tile = grid[i * window : (i + 1) * window, j * window : (j + 1) * window]
            pooled[i, j] = int(tile.max())
    return pooled.tolist()


def max_pool_jj(window: int = 2) -> int:
    """JJ cost of one pooled output: an LA-gate reduction tree."""
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    return (window * window - 1) * tech.JJ_FA


class RaceLogicAlu:
    """A one-operation temporal ALU over an epoch: min / max / inhibit.

    Encodes two unipolar operands, runs the corresponding gate on the
    pulse simulator, and decodes the output slot.
    """

    OPERATIONS = ("min", "max", "inhibit")

    def __init__(self, epoch: EpochSpec, operation: str):
        if operation not in self.OPERATIONS:
            raise ConfigurationError(
                f"operation must be one of {self.OPERATIONS}, got {operation!r}"
            )
        self.epoch = epoch
        self.operation = operation
        self.circuit = Circuit(f"rl_{operation}")
        if operation == "min":
            self.gate = self.circuit.add(FirstArrival("gate"))
        elif operation == "max":
            self.gate = self.circuit.add(LastArrival("gate"))
        else:
            self.gate = self.circuit.add(Inhibit("gate"))
        self.probe = self.circuit.probe(self.gate, "q")
        self.circuit.seal()

    @property
    def jj_count(self) -> int:
        return self.gate.jj_count

    def run_slots(self, slot_a: int, slot_b: int) -> Optional[int]:
        """Apply the operation; returns the output slot (None = no pulse)."""
        n_max = self.epoch.n_max
        for slot in (slot_a, slot_b):
            if not 0 <= slot <= n_max:
                raise ConfigurationError(f"slots must be in [0, {n_max}], got {slot}")
        sim = Simulator(self.circuit)
        sim.reset()
        if slot_a < n_max:
            sim.schedule_input(self.gate, "a", self.epoch.slot_time(slot_a))
        if slot_b < n_max:
            sim.schedule_input(self.gate, "b", self.epoch.slot_time(slot_b))
        sim.run()
        if not self.probe.times:
            return None
        return (self.probe.times[0] - self.gate.delay) // self.epoch.slot_fs
