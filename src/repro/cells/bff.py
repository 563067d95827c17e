"""The B flip-flop (Polonsky, Semenov, Kirichenko 1994 — paper ref [43]).

A single quantizing loop with two stationary states, four write ports and
complementary transition outputs.  Writes that change the state produce a
pulse on the corresponding direct output (``q1``/``q2``); writes that find
the loop already in the target state produce a pulse on the complementary
output (``nq1``/``nq2``) for reset ports, mirroring the kickback behaviour
the balancer routing unit exploits (Fig 6e/6f).

Semantics used here:

* ``s1``/``s2`` (set): if state is 0 -> state becomes 1 and ``q1``/``q2``
  pulses; if state is already 1 the write is absorbed silently.
* ``r1``/``r2`` (reset): if state is 1 -> state becomes 0 and ``nq1``/
  ``nq2`` pulses; if already 0 the write is absorbed.

Wiring input A to (``s1``, ``r2``) and B to (``s2``, ``r1``) and merging
``q1``+``nq1`` -> C1, ``q2``+``nq2`` -> C2 (as the paper describes) makes
every input pulse produce exactly one control pulse, alternating between
C1 and C2 — the balancer's Mealy machine (Fig 6c).
"""

from __future__ import annotations

from repro.models import technology as tech
from repro.pulsesim.element import CellRole, PortSpec, TableCell


class Bff(TableCell):
    """Four-input, single-loop B flip-flop."""

    INPUTS = (
        PortSpec("s1", priority=0),
        PortSpec("r1", priority=1),
        PortSpec("s2", priority=0),
        PortSpec("r2", priority=1),
    )
    OUTPUTS = ("q1", "nq1", "q2", "nq2")
    ROLES = frozenset({CellRole.STORAGE})
    jj_count = tech.JJ_BFF
    DEFAULT_DELAY = tech.T_DFF_FS
    TRANSITIONS = {
        "s1": ((1, ("q1",)), (1, ())),
        "r1": ((0, ()), (0, ("nq1",))),
        "s2": ((1, ("q2",)), (1, ())),
        "r2": ((0, ()), (0, ("nq2",))),
    }
