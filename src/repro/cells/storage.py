"""Storage cells: DFF, DFF2, NDRO.

Port priorities encode the conventions the U-SFQ datapath depends on when
pulses coincide exactly (see :mod:`repro.pulsesim.element`):

* ``Ndro``: ``reset`` < ``set`` < ``clk``.  A Race-Logic pulse landing on
  the reset port in the same time slot as a stream pulse on the clock port
  blocks that slot — slot ``d`` passes slots ``0..d-1``, the multiplication
  convention of Fig 3b.
* ``Dff``: ``d`` < ``clk`` so a set in the same instant as the read is
  observed (conservative capture).

State 1 means a stored flux quantum in every cell here.
"""

from __future__ import annotations

from repro.models import technology as tech
from repro.pulsesim.element import CellRole, PortSpec, TableCell


class Dff(TableCell):
    """Destructive-readout D flip-flop: ``d`` sets, ``clk`` reads & clears."""

    INPUTS = (PortSpec("d", priority=0), PortSpec("clk", priority=1))
    OUTPUTS = ("q",)
    ROLES = frozenset({CellRole.STORAGE, CellRole.CLOCKED})
    CLOCK_PORTS = ("clk",)
    jj_count = tech.JJ_DFF
    DEFAULT_DELAY = tech.T_DFF_FS
    TRANSITIONS = {
        "d": ((1, ()), (1, ())),
        "clk": ((0, ()), (0, ("q",))),
    }


class Dff2(TableCell):
    """Dual-readout DFF: ``a`` sets; ``c1``/``c2`` reset and pulse ``y1``/``y2``.

    This is the output-stage cell of the proposed balancer (Fig 6b): each
    incoming data pulse parks a flux quantum that either control line can
    later steer to its own output.
    """

    INPUTS = (
        PortSpec("a", priority=0),
        PortSpec("c1", priority=1),
        PortSpec("c2", priority=1),
    )
    OUTPUTS = ("y1", "y2")
    ROLES = frozenset({CellRole.STORAGE, CellRole.CLOCKED})
    CLOCK_PORTS = ("c1", "c2")
    jj_count = tech.JJ_DFF2
    DEFAULT_DELAY = tech.T_DFF2_FS
    TRANSITIONS = {
        "a": ((1, ()), (1, ())),
        "c1": ((0, ()), (0, ("y1",))),
        "c2": ((0, ()), (0, ("y2",))),
    }


class Ndro(TableCell):
    """Non-destructive readout cell.

    ``set``/``reset`` write the SQUID; ``clk`` reads without altering the
    state, emitting a pulse at ``q`` iff the state is 1.  The cell is the
    U-SFQ multiplier (Fig 3c): ``set`` <- epoch start, ``reset`` <- the
    Race-Logic operand, ``clk`` <- the pulse-stream operand.
    """

    INPUTS = (
        PortSpec("reset", priority=0),
        PortSpec("set", priority=1),
        PortSpec("clk", priority=2),
    )
    OUTPUTS = ("q",)
    ROLES = frozenset({CellRole.STORAGE, CellRole.CLOCKED})
    CLOCK_PORTS = ("clk",)
    jj_count = tech.JJ_NDRO
    DEFAULT_DELAY = tech.T_NDRO_FS
    TRANSITIONS = {
        "set": ((1, ()), (1, ())),
        "reset": ((0, ()), (0, ())),
        "clk": ((0, ()), (1, ("q",))),
    }
