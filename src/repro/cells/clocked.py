"""Clocked Boolean gates — the binary-RSFQ way of computing.

In RSFQ, AND/OR/XOR are *synchronous*: input pulses park flux in input
latches and a clock pulse evaluates the function, emits the result, and
clears the latches.  This is the paper's motivating pain point (section
1): "almost every cell in the design must be synchronized with a global
clock", which is exactly what the U-SFQ datapath avoids.  These cells
power the gate-level binary adder in :mod:`repro.core.binary_adder`, the
substrate for structural unary-vs-binary comparisons.
"""

from __future__ import annotations

from repro.models import technology as tech
from repro.pulsesim.element import CellRole, PortSpec, TableCell

#: JJ budgets for clocked Boolean gates (RSFQ cell libraries [11, 58]).
JJ_AND = 11
JJ_OR = 9
JJ_XOR = 11


def _gate_table(function):
    """Transitions of a clocked gate computing ``function(a, b)``.

    State bit 0 latches an ``a`` pulse and bit 1 a ``b`` pulse; ``clk``
    emits iff the function of the latched bits holds, then clears both.
    """
    return {
        "a": tuple((state | 1, ()) for state in range(4)),
        "b": tuple((state | 2, ()) for state in range(4)),
        "clk": tuple(
            (0, ("q",) if function(state & 1, state >> 1) else ())
            for state in range(4)
        ),
    }


class _ClockedGate(TableCell):
    """Shared ports: latch ``a``/``b`` pulses, evaluate on ``clk``."""

    INPUTS = (
        PortSpec("a", priority=0),
        PortSpec("b", priority=0),
        PortSpec("clk", priority=1),
    )
    OUTPUTS = ("q",)
    ROLES = frozenset({CellRole.STORAGE, CellRole.CLOCKED})
    CLOCK_PORTS = ("clk",)
    DEFAULT_DELAY = tech.T_DFF_FS


class ClockedAnd(_ClockedGate):
    """Synchronous AND: pulses on q iff both inputs pulsed this cycle."""

    jj_count = JJ_AND
    TRANSITIONS = _gate_table(lambda a, b: a and b)


class ClockedOr(_ClockedGate):
    """Synchronous OR: pulses on q iff either input pulsed this cycle."""

    jj_count = JJ_OR
    TRANSITIONS = _gate_table(lambda a, b: a or b)


class ClockedXor(_ClockedGate):
    """Synchronous XOR: pulses on q iff exactly one input pulsed."""

    jj_count = JJ_XOR
    TRANSITIONS = _gate_table(lambda a, b: a != b)
