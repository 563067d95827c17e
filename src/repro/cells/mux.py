"""RSFQ multiplexer and demultiplexer (Zheng et al. 1999 — paper ref [57]).

Used by the integrator-based memory cell (Fig 10d) to interleave its two
buffers: while one buffer delays the previous epoch's pulse, the other
accepts the current epoch's input.  Selection is flux-state based: a pulse
on ``sel0``/``sel1`` steers subsequent data pulses to/from channel 0/1
(the cell's state is the selected channel).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.models import technology as tech
from repro.pulsesim.element import PortSpec, Row, TableCell

_SELECT: Dict[str, Tuple[Row, ...]] = {
    "sel0": ((0, ()), (0, ())),
    "sel1": ((1, ()), (1, ())),
}


class Demux(TableCell):
    """1:2 demultiplexer: routes ``a`` pulses to ``q0`` or ``q1``."""

    INPUTS = (
        PortSpec("sel0", priority=0),
        PortSpec("sel1", priority=0),
        PortSpec("a", priority=1),
    )
    OUTPUTS = ("q0", "q1")
    jj_count = tech.JJ_DEMUX
    DEFAULT_DELAY = tech.T_MUX_FS
    TRANSITIONS = {**_SELECT, "a": ((0, ("q0",)), (1, ("q1",)))}


class Mux(TableCell):
    """2:1 multiplexer: passes the selected channel's pulses to ``q``."""

    INPUTS = (
        PortSpec("sel0", priority=0),
        PortSpec("sel1", priority=0),
        PortSpec("a0", priority=1),
        PortSpec("a1", priority=1),
    )
    OUTPUTS = ("q",)
    jj_count = tech.JJ_MUX
    DEFAULT_DELAY = tech.T_MUX_FS
    TRANSITIONS = {
        **_SELECT,
        "a0": ((0, ("q",)), (1, ())),
        "a1": ((0, ()), (1, ("q",))),
    }
