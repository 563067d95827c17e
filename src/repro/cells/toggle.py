"""Toggle cells: TFF (divide-by-two) and TFF2 (alternating dual output).

The TFF2 "works like a demultiplexer, splitting up a data stream into two
signal lines" (paper section 4.3); chained TFF2s form the proposed
pulse-number multiplier whose stream "resembles a train of pulses with a
uniform rate" (Fig 9b).
"""

from __future__ import annotations

from repro.models import technology as tech
from repro.pulsesim.element import CellRole, TableCell


class Tff(TableCell):
    """Toggle flip-flop used as a frequency divider.

    Emits one output pulse for every *second* input pulse (on the pulse
    that completes a full loop oscillation).
    """

    INPUTS = ("a",)
    OUTPUTS = ("q",)
    ROLES = frozenset({CellRole.STORAGE})
    jj_count = tech.JJ_TFF
    DEFAULT_DELAY = tech.T_TFF_FS
    TRANSITIONS = {"a": ((1, ()), (0, ("q",)))}


class Tff2(TableCell):
    """Dual-port toggle flip-flop: input pulses alternate between ``q1``
    and ``q2``, starting with ``q1``."""

    INPUTS = ("a",)
    OUTPUTS = ("q1", "q2")
    ROLES = frozenset({CellRole.STORAGE})
    jj_count = tech.JJ_TFF2
    DEFAULT_DELAY = tech.T_TFF_FS
    TRANSITIONS = {"a": ((1, ("q1",)), (0, ("q2",)))}
