"""Merger-based unary addition (paper section 4.2-A, Fig 5).

Merging two pulse streams adds their counts — as long as no two pulses
arrive within the merger's dead time, in which case one pulse is silently
lost (Fig 5b).  Collision freedom is bought with latency: the architecture
staggers the M input lanes inside each time slot by the merger's intrinsic
delay, so the minimum slot width (and therefore the computation latency)
grows linearly with M (Fig 5c).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cells.interconnect import Merger
from repro.errors import ConfigurationError
from repro.models import technology as tech
from repro.pulsesim.block import Block
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.simulator import Simulator


def merger_tree_jj(m_inputs: int) -> int:
    """JJ budget of an M:1 merger tree: (M - 1) 2:1 mergers."""
    _check_m(m_inputs)
    return (m_inputs - 1) * tech.JJ_MERGER


def merger_tree_output_count(counts: Sequence[int]) -> int:
    """Collision-free output count: the plain sum of the input counts."""
    if any(c < 0 for c in counts):
        raise ConfigurationError(f"pulse counts must be >= 0, got {counts}")
    return sum(int(c) for c in counts)


def staggered_offsets(
    m_inputs: int, spacing_fs: int = tech.T_MERGER_DEAD_FS
) -> List[int]:
    """Per-lane time offsets that keep an M:1 merger tree collision-free.

    Lane ``i`` is delayed by ``i * spacing_fs`` so that even if every lane
    pulses in the same time slot, arrivals at each merger stay at least one
    dead time apart.  The required slot width follows:
    ``min_slot_fs = m_inputs * spacing_fs`` (Fig 5c).
    """
    _check_m(m_inputs)
    return [i * spacing_fs for i in range(m_inputs)]


def min_slot_fs(m_inputs: int, spacing_fs: int = tech.T_MERGER_DEAD_FS) -> int:
    """Minimum slot width for collision-free M:1 merger addition."""
    _check_m(m_inputs)
    return m_inputs * spacing_fs


def build_merger_tree(circuit: Circuit, name: str, m_inputs: int) -> Block:
    """Assemble an M:1 merger tree (M a power of two).

    Exposed ports: inputs ``a0`` .. ``a{M-1}``; output ``y``.
    """
    _check_m(m_inputs)
    block = Block(circuit, name)

    frontier = []
    for i in range(m_inputs // 2):
        node = block.add(Merger(block.subname(f"l0_m{i}")))
        block.expose_input(f"a{2 * i}", node, "a")
        block.expose_input(f"a{2 * i + 1}", node, "b")
        frontier.append(node)

    level = 1
    while len(frontier) > 1:
        next_frontier = []
        for i in range(0, len(frontier), 2):
            node = block.add(Merger(block.subname(f"l{level}_m{i // 2}")))
            circuit.connect(frontier[i], "q", node, "a")
            circuit.connect(frontier[i + 1], "q", node, "b")
            next_frontier.append(node)
        frontier = next_frontier
        level += 1

    block.expose_output("y", frontier[0], "q")
    return block


class MergerAdder:
    """Convenience wrapper: an M:1 merger tree with drive/measure helpers."""

    def __init__(self, m_inputs: int):
        self.m_inputs = _check_m(m_inputs)
        self.circuit = Circuit(f"merger_{m_inputs}to1")
        self.block = build_merger_tree(self.circuit, "ma", m_inputs)
        self.output = self.block.probe_output("y")
        self.circuit.seal()

    @property
    def jj_count(self) -> int:
        return self.block.jj_count

    @property
    def collisions(self) -> int:
        """Total pulses lost to collisions across the tree in the last run."""
        return sum(
            element.collisions
            for element in self.block.elements
            if isinstance(element, Merger)
        )

    def run(self, input_times: Sequence[Sequence[int]], stagger: bool = False) -> int:
        """Simulate; optionally apply the collision-avoiding lane stagger."""
        if len(input_times) != self.m_inputs:
            raise ConfigurationError(
                f"expected {self.m_inputs} input trains, got {len(input_times)}"
            )
        offsets = (
            staggered_offsets(self.m_inputs) if stagger else [0] * self.m_inputs
        )
        sim = Simulator(self.circuit)
        sim.reset()
        for index, times in enumerate(input_times):
            self.block.drive(sim, f"a{index}", [t + offsets[index] for t in times])
        sim.run()
        return self.output.count()


def _check_m(m_inputs: int) -> int:
    if m_inputs < 2 or m_inputs & (m_inputs - 1):
        raise ConfigurationError(
            f"merger tree needs a power-of-two input count >= 2, got {m_inputs}"
        )
    return m_inputs
