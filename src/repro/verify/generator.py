"""Random *legal* netlist generation.

The generator enumerates circuits the design-rule checker
(:mod:`repro.lint`) accepts with **zero** diagnostics, by turning each DRC
rule into a construction constraint instead of a post-hoc filter:

===================  =========================================================
Rule                 Constraint
===================  =========================================================
implicit-fanout      every pool output is consumed by at most one wire;
                     fanout only ever comes from explicit ``Splitter`` cells
unmerged-fanin       every input port gets exactly one wire
floating-input       every input port gets exactly one wire (same invariant)
dead-element         wires only reference earlier pool outputs, all of which
                     descend from the declared ``entry`` stimulus splitter
dangling-output      the builder probes every unconsumed output
combinational-loop   pool indexing is topological: the netlist is a DAG
no-clock-driver      clocked cells have *all* inputs wired, clocks included
merger-collision     the single-wave arrival sets at a dead-time merger's
                     inputs are spaced at least one dead time apart: the
                     later input's wire delay is bumped until they are,
                     using the analyzer's own per-cell set function
                     (:func:`repro.analyze.checks.cell_arrival_sets`); a
                     source whose own set is unknown or unspaced gets an
                     ``IdealMerger`` instead
===================  =========================================================

The harness still lints every generated circuit — not as a filter but as a
cross-check that couples the generator to the rule catalogue: a rule
change that invalidates these constraints fails the ``lint-clean`` oracle
immediately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.analyze.checks import (
    ArrivalSet,
    cell_arrival_sets,
    spaced,
    union_arrivals,
)
from repro.errors import VerificationError
from repro.pulsesim.element import CellRole
from repro.synth.builder import splitters_needed
from repro.verify.spec import (
    ENTRY_OUTPUTS,
    CellSpec,
    NetlistSpec,
    WireSpec,
    input_ports,
    template,
)

#: Draw weights over the standard-cell library.  Interconnect and storage
#: cells dominate (they dominate real U-SFQ datapaths); every kind keeps a
#: non-zero weight so the full library is continuously exercised.
KIND_WEIGHTS: Tuple[Tuple[str, int], ...] = (
    ("Jtl", 3),
    ("Splitter", 3),
    ("Merger", 2),
    ("IdealMerger", 2),
    ("Tff", 2),
    ("Tff2", 2),
    ("Dff", 2),
    ("Ndro", 2),
    ("Dff2", 1),
    ("Inverter", 1),
    ("Bff", 1),
    ("Mux", 1),
    ("Demux", 1),
    ("FirstArrival", 1),
    ("LastArrival", 1),
    ("ClockedAnd", 1),
    ("ClockedOr", 1),
    ("ClockedXor", 1),
)


@dataclass(frozen=True)
class Profile:
    """Size envelope for one verification depth."""

    name: str
    examples: int
    min_cells: int
    max_cells: int
    max_stimulus: int
    max_slot: int
    time_scale: int = 1_000
    delay_choices: Tuple[int, ...] = (0, 0, 500, 1_000, 1_500, 2_500)


PROFILES: Dict[str, Profile] = {
    "smoke": Profile("smoke", examples=25, min_cells=1, max_cells=5,
                     max_stimulus=12, max_slot=20),
    "ci": Profile("ci", examples=200, min_cells=1, max_cells=8,
                  max_stimulus=25, max_slot=40),
    "nightly": Profile("nightly", examples=2_000, min_cells=2, max_cells=14,
                       max_stimulus=60, max_slot=80),
}


def profile(name: str) -> Profile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise VerificationError(
            f"unknown profile {name!r}; known profiles: {known}"
        ) from None


def example_rng(seed: int, example: int) -> random.Random:
    """The deterministic RNG substream for one example index."""
    return random.Random(f"usfq-verify/{seed}/{example}")


class _PoolState:
    """Pool bookkeeping during generation, one arrival set per slot."""

    def __init__(self) -> None:
        entry = cell_arrival_sets(template("Splitter"), {"a": frozenset({0})})
        #: pool slot -> single-wave arrival set of its pulses (the
        #: analyzer's proof-mode convention: one pulse into ``entry.a``
        #: at t = 0).
        self.waves: List[ArrivalSet] = list(entry.values())
        self.available: List[int] = list(range(ENTRY_OUTPUTS))

    def consume(self, slot: int) -> None:
        self.available.remove(slot)

    def extend(self, waves: Iterable[ArrivalSet]) -> None:
        for wave in waves:
            self.available.append(len(self.waves))
            self.waves.append(wave)


def _spacing_bump(fixed: FrozenSet[int], moving: FrozenSet[int],
                  dead_time: int) -> int:
    """The smallest delay that puts every pulse of ``moving`` at least a
    dead time away from every pulse of ``fixed``.

    Each pair forbids the open window of one dead time around
    ``a - b``; all windows share one width, so a single sweep in order
    of their centres lands on the first delay outside all of them.
    """
    bump = 0
    for centre in sorted(a - b for a in fixed for b in moving):
        if centre - dead_time < bump < centre + dead_time:
            bump = centre + dead_time
    return bump


def _draw_kind(rng: random.Random) -> str:
    total = sum(weight for _, weight in KIND_WEIGHTS)
    pick = rng.randrange(total)
    for kind, weight in KIND_WEIGHTS:
        pick -= weight
        if pick < 0:
            return kind
    raise AssertionError("unreachable")  # pragma: no cover


def _add_cell(kind: str, rng: random.Random, prof: Profile,
              pool: _PoolState, cells: List[CellSpec]) -> None:
    """Wire one cell from the available pool, honouring merger spacing."""
    ports = input_ports(kind)
    sources = rng.sample(pool.available, len(ports))
    delays = [rng.choice(prof.delay_choices) for _ in ports]
    waves = [union_arrivals((pool.waves[s],), d)
             for s, d in zip(sources, delays)]
    cell = template(kind)
    dead_time = getattr(cell, "dead_time", 0)
    if cell.has_role(CellRole.MERGER) and dead_time > 0:
        # Push the input whose pulses end later until the analyzer can
        # prove the merger (see the merger-collision row above).
        first, second = waves
        if (first is not None and second is not None
                and spaced(first, dead_time) and spaced(second, dead_time)):
            later = int(max(second, default=0) >= max(first, default=0))
            fixed, moving = (first, second) if later else (second, first)
            bump = _spacing_bump(fixed, moving, dead_time)
            delays[later] += bump
            waves[later] = union_arrivals((moving,), bump)
        if not spaced(union_arrivals(waves), dead_time):
            kind = "IdealMerger"
            cell = template(kind)
    for slot in sources:
        pool.consume(slot)
    pool.extend(cell_arrival_sets(cell, dict(zip(ports, waves))).values())
    cells.append(CellSpec(kind=kind, inputs=tuple(
        WireSpec(s, d) for s, d in zip(sources, delays)
    )))


def generate_spec(rng: random.Random, prof: Profile) -> NetlistSpec:
    """One random legal :class:`NetlistSpec` drawn from ``rng``."""
    cells: List[CellSpec] = []
    pool = _PoolState()
    target = rng.randint(prof.min_cells, prof.max_cells)
    while len(cells) < target:
        kind = _draw_kind(rng)
        # Grow the pool with explicit splitters until the cell's fan-in
        # can be served — the only legal fanout mechanism in RSFQ.
        for _ in range(
            splitters_needed(len(pool.available), len(input_ports(kind)))
        ):
            _add_cell("Splitter", rng, prof, pool, cells)
        _add_cell(kind, rng, prof, pool, cells)
    count = rng.randint(1, prof.max_stimulus)
    stimulus = tuple(
        rng.randint(0, prof.max_slot) * prof.time_scale for _ in range(count)
    )
    return NetlistSpec(cells=tuple(cells), stimulus=stimulus)
