"""Stateless interconnect cells: JTL, splitter, merger.

The merger is the one interconnect cell with interesting dynamics: two
pulses arriving within its dead time collide and only one propagates
(paper Fig 5b).  The cell counts collisions so experiments can report
pulse-loss statistics.
"""

from __future__ import annotations

from repro.models import technology as tech
from repro.pulsesim.element import CellRole, TableCell


class Jtl(TableCell):
    """Josephson transmission line segment: a pure delay buffer."""

    INPUTS = ("a",)
    OUTPUTS = ("q",)
    ROLES = frozenset({CellRole.BUFFER})
    jj_count = tech.JJ_JTL
    DEFAULT_DELAY = tech.T_JTL_FS
    TRANSITIONS = {"a": ((0, ("q",)),)}


class Splitter(TableCell):
    """1:2 splitter: every input pulse appears at both outputs."""

    INPUTS = ("a",)
    OUTPUTS = ("q1", "q2")
    ROLES = frozenset({CellRole.SPLITTER})
    jj_count = tech.JJ_SPLITTER
    DEFAULT_DELAY = tech.T_SPLITTER_FS
    TRANSITIONS = {"a": ((0, ("q1", "q2")),)}


class Merger(TableCell):
    """2:1 confluence buffer with collision dead time.

    A pulse at either input normally produces one output pulse.  If a pulse
    arrives less than ``dead_time`` after the previously accepted pulse, it
    is absorbed (the SQUID has not yet recovered) and counted in
    :attr:`collisions` — the error mode of the merger-based unary adder
    (section 4.2-A).  One state; row 1 is the guarded one (inside the
    dead time).
    """

    INPUTS = ("a", "b")
    OUTPUTS = ("q",)
    ROLES = frozenset({CellRole.MERGER})
    jj_count = tech.JJ_MERGER
    GUARDS = ("dead_time",)
    COUNTER = "collisions"
    TRANSITIONS = dict.fromkeys(INPUTS, ((0, ("q",)), (0, (), 1)))

    def __init__(
        self,
        name: str,
        delay: int = tech.T_MERGER_FS,
        dead_time: int = tech.T_MERGER_DEAD_FS,
    ):
        super().__init__(name, delay)
        self.dead_time = dead_time


class IdealMerger(Merger):
    """Merger with zero dead time, for netlists where collision-freedom is
    guaranteed by construction and we want exact pulse conservation."""

    def __init__(self, name: str, delay: int = tech.T_MERGER_FS):
        super().__init__(name, delay=delay, dead_time=0)
