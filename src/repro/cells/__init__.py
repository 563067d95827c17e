"""Behavioural RSFQ cell library (the gates of the paper's Table 1).

Each cell is a :class:`~repro.pulsesim.element.Element` whose state machine
matches the published gate semantics.  Every finite-state cell below is a
:class:`~repro.pulsesim.element.TableCell`: its behaviour is written once,
as a ``TRANSITIONS`` table that the reference, sealed and batch kernels all
run.  The merger is a timed table (its dead time picks the row); only
:class:`NocLink` (serialization and a bounded FIFO) keeps a hand-written
``handle``.

===========  ================================================================
Cell         Behaviour (paper Table 1)
===========  ================================================================
Splitter     Produces a pulse at both outputs per input pulse.
Merger       Produces a pulse at the output for a pulse at either input;
             near-simultaneous inputs collide and one pulse is lost (Fig 5).
Jtl          Acts as a buffer, sharpening (here: delaying) the pulse.
FirstArrival Output pulse the first time a pulse arrives at either input.
Dff          S sets the SQUID; the clock reads destructively.
Dff2         A sets; C1 (C2) resets and pulses Y1 (Y2).
Tff / Tff2   Distributes incoming pulses through alternating output ports.
Ndro         S/R set/reset; CLK reads the state non-destructively.
Inverter     Clocked inverter: pulses on CLK iff no data pulse since the
             previous clock.
Bff          Polonsky B flip-flop: single quantizing loop, four inputs,
             complementary transition outputs (the balancer's routing core).
Mux / Demux  RSFQ (de)multiplexer, select-controlled routing [57].
===========  ================================================================

JJ counts and delays come from :mod:`repro.models.technology`.
"""

from repro.cells.bff import Bff
from repro.cells.clocked import ClockedAnd, ClockedOr, ClockedXor
from repro.cells.interconnect import Jtl, Merger, Splitter
from repro.cells.library import CELL_SPECS, CellSpec, cell_spec
from repro.cells.logic import FirstArrival, Inverter, LastArrival
from repro.cells.mux import Demux, Mux
from repro.cells.noc import NocLink
from repro.cells.storage import Dff, Dff2, Ndro
from repro.cells.toggle import Tff, Tff2

__all__ = [
    "Bff",
    "CELL_SPECS",
    "CellSpec",
    "ClockedAnd",
    "ClockedOr",
    "ClockedXor",
    "Demux",
    "Dff",
    "Dff2",
    "FirstArrival",
    "Inverter",
    "Jtl",
    "LastArrival",
    "Merger",
    "Mux",
    "Ndro",
    "NocLink",
    "Splitter",
    "Tff",
    "Tff2",
    "cell_spec",
]
