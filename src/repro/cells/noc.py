"""Temporal NoC link cell: PaST-NoC-style inter-fabric pulse transport.

When a netlist is partitioned across several fabrics (:mod:`repro.shard`),
every cut wire is replaced by a :class:`NocLink`: an explicit cell that
models what a packet-switched superconducting temporal NoC does to the
pulse stream crossing the boundary —

* **serialization**: consecutive flits leave at least
  ``serialization_fs`` apart (one temporal packet slot each);
* **hop latency**: every flit pays ``hops * hop_latency_fs`` of router
  traversal + PTL flight on top of serialization; and
* **bounded buffering**: at most ``fifo_depth`` flits may be in flight in
  the link at once; arrivals beyond that are dropped and counted in
  :attr:`NocLink.drops` (the congestion-loss mode of a bufferless-leaning
  temporal NoC).

The minimum latency ``min_latency_fs = serialization_fs + hops *
hop_latency_fs`` is enforced strictly positive at construction.  That
constant is load-bearing: it is the compile-time lookahead the
partitioned parallel engine's conservative synchronization advances on
(the same ``element.delay + wire.delay > 0`` argument the sealed
kernel's monotonic fast path is built from), so a zero-latency link
would deadlock the time-window protocol and is rejected up front.

Same-time arrivals are order-insensitive by construction: the multiset
of departures (and the drop count) does not depend on the processing
order of equal-timestamp inputs, which is what lets the shard engine
guarantee bit-identical probed outputs against a monolithic run.

The rule is one pure method, :meth:`NocLink.depart`: the kernels reach it
through :meth:`NocLink.handle`, and the shard engine calls it directly
on the arrivals it taps off each cut, so a sharded run needs no link
cell in any kernel.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.models import technology as tech
from repro.pulsesim.element import CellRole, Element


class NocLink(Element):
    """One-flit-per-pulse temporal NoC link between fabric partitions.

    A pulse arriving at ``a`` at time ``t`` ejects at ``q`` at::

        depart = max(t + min_latency_fs, previous_depart + serialization_fs)

    unless the link already holds ``fifo_depth`` undelivered flits at
    time ``t``, in which case the pulse is dropped (counted, not
    re-emitted).  ``self.delay`` is the minimum latency so static timing
    (:attr:`~repro.pulsesim.element.Element.propagation_delay_fs`) and
    the shard engine's lookahead read the same number.
    """

    INPUTS = ("a",)
    OUTPUTS = ("q",)
    ROLES = frozenset({CellRole.BUFFER, CellRole.STORAGE, CellRole.NOC})

    def __init__(
        self,
        name: str,
        serialization_fs: int = tech.T_NOC_SERIALIZATION_FS,
        hops: int = 1,
        hop_latency_fs: int = tech.T_NOC_HOP_FS,
        fifo_depth: int = tech.NOC_FIFO_DEPTH,
    ):
        super().__init__(name)
        if serialization_fs < 1:
            raise ConfigurationError(
                f"NocLink {name!r}: serialization_fs must be >= 1 fs "
                f"(got {serialization_fs}); a zero-width flit slot would "
                "destroy the conservative-sync lookahead"
            )
        if hops < 1:
            raise ConfigurationError(
                f"NocLink {name!r}: hops must be >= 1, got {hops}"
            )
        if hop_latency_fs < 0:
            raise ConfigurationError(
                f"NocLink {name!r}: hop_latency_fs must be >= 0, "
                f"got {hop_latency_fs}"
            )
        if fifo_depth < 1:
            raise ConfigurationError(
                f"NocLink {name!r}: fifo_depth must be >= 1, got {fifo_depth}"
            )
        self.serialization_fs = serialization_fs
        self.hops = hops
        self.hop_latency_fs = hop_latency_fs
        self.fifo_depth = fifo_depth
        #: Minimum input-to-output latency; strictly positive by the
        #: checks above.  Stored as ``delay`` so timing analysis and the
        #: shard engine's lookahead proof both read it.
        self.delay = serialization_fs + hops * hop_latency_fs
        self.jj_count = (
            tech.JJ_NOC_PER_HOP * hops + tech.JJ_NOC_PER_FLIT * fifo_depth
        )
        #: Pulses lost to link-FIFO overflow since the last reset.
        self.drops = 0
        self._departures: List[int] = []  # pending ejection times, sorted

    @property
    def min_latency_fs(self) -> int:
        """The conservative-sync lookahead this link contributes."""
        return self.delay

    def depart(self, time: int) -> Optional[int]:
        """Admit one flit arriving at ``time``: its ejection time, or None
        when the FIFO is full and the flit is dropped (and counted).

        Arrivals must come in time order; equal times in any order.
        """
        departures = self._departures
        # Flits whose ejection time has passed have left the link.
        del departures[:bisect_right(departures, time)]
        if len(departures) >= self.fifo_depth:
            self.drops += 1
            return None
        depart = time + self.delay
        if departures and departures[-1] + self.serialization_fs > depart:
            depart = departures[-1] + self.serialization_fs
        departures.append(depart)
        return depart

    def handle(self, sim, port, time):
        depart = self.depart(time)
        if depart is not None:
            self.emit(sim, "q", depart)

    def reset(self):
        self.drops = 0
        self._departures.clear()
