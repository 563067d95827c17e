"""Logic cells: the clocked inverter and the first-arrival (FA) gate.

The inverter produces the *complement* of a pulse stream against a
reference clock — the building block that turns the unipolar NDRO
multiplier into the bipolar (XNOR-style) multiplier of Fig 3c.  The FA
gate computes the Race-Logic ``min`` (Fig 2a) in 8 JJs.
"""

from __future__ import annotations

from repro.models import technology as tech
from repro.pulsesim.element import CellRole, PortSpec, TableCell


class Inverter(TableCell):
    """Clocked RSFQ inverter.

    Emits a pulse at ``q`` on each ``clk`` pulse iff no data pulse arrived
    at ``a`` since the previous clock.  With ``clk`` running at the epoch's
    maximum pulse rate, the output stream carries ``n_max - n`` pulses for
    an ``n``-pulse input stream: the stream complement ``1 - p``.

    State 1 is armed (no data pulse since the last clock), 0 disarmed.
    """

    INPUTS = (PortSpec("a", priority=0), PortSpec("clk", priority=1))
    OUTPUTS = ("q",)
    ROLES = frozenset({CellRole.STORAGE, CellRole.CLOCKED})
    CLOCK_PORTS = ("clk",)
    jj_count = tech.JJ_INVERTER
    DEFAULT_DELAY = tech.T_INV_FS
    INITIAL = 1
    TRANSITIONS = {
        "a": ((0, ()), (0, ())),
        "clk": ((1, ()), (1, ("q",))),
    }


class LastArrival(TableCell):
    """LA gate: one output pulse when *both* inputs have arrived.

    The Race-Logic ``max``: a Muller-C-style coincidence element that
    fires at the later of the two pulses; ``reset`` re-arms it for the
    next epoch.  States: 0 none seen, 1 ``a`` seen, 2 ``b`` seen, 3 both
    seen (fired).
    """

    INPUTS = (PortSpec("reset", priority=0), PortSpec("a", priority=1), PortSpec("b", priority=1))
    OUTPUTS = ("q",)
    ROLES = frozenset({CellRole.STORAGE})
    jj_count = tech.JJ_FA  # same SQUID complexity class as the FA gate
    DEFAULT_DELAY = tech.T_FA_FS
    TRANSITIONS = {
        "reset": ((0, ()), (0, ()), (0, ()), (0, ())),
        "a": ((1, ()), (1, ()), (3, ("q",)), (3, ())),
        "b": ((2, ()), (3, ("q",)), (2, ()), (3, ())),
    }


class FirstArrival(TableCell):
    """FA gate: one output pulse at the first input pulse after (re)arming.

    In Race Logic ``min(A, B)`` is simply the earlier of the two pulses
    (Fig 2a); ``reset`` re-arms the gate for the next epoch.  State 0 is
    armed, 1 fired.
    """

    INPUTS = (PortSpec("reset", priority=0), PortSpec("a", priority=1), PortSpec("b", priority=1))
    OUTPUTS = ("q",)
    ROLES = frozenset({CellRole.STORAGE})
    jj_count = tech.JJ_FA
    DEFAULT_DELAY = tech.T_FA_FS
    TRANSITIONS = {
        "reset": ((0, ()), (0, ())),
        "a": ((1, ("q",)), (1, ())),
        "b": ((1, ("q",)), (1, ())),
    }
