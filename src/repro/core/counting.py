"""M:1 counting networks built from balancers (paper section 4.2-B, Fig 6d).

An ``M:1`` counting network (M a power of two) is a binary tree of
balancers: each level halves the pulse count, so the root's output carries
``(N_A1 + ... + N_AM) / M`` pulses — a collision-tolerant unary adder.
``M - 1`` balancers are required (three for the 4:1 example of Fig 6d).

The structural builder composes behavioural :class:`Balancer` cells; the
:func:`counting_network_output_count` functional model computes the exact
ceil-cascade count for ideally interleaved inputs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.balancer import BALANCER_JJ, Balancer
from repro.errors import ConfigurationError
from repro.pulsesim.block import Block
from repro.pulsesim.netlist import Circuit


def _check_m(m_inputs: int) -> int:
    if m_inputs < 2 or m_inputs & (m_inputs - 1):
        raise ConfigurationError(
            f"counting network needs a power-of-two input count >= 2, got {m_inputs}"
        )
    return m_inputs


def counting_network_jj(m_inputs: int) -> int:
    """JJ budget of an M:1 counting network: (M - 1) balancers."""
    return (_check_m(m_inputs) - 1) * BALANCER_JJ


def counting_network_depth(m_inputs: int) -> int:
    """Number of balancer levels (log2 M)."""
    return _check_m(m_inputs).bit_length() - 1


def counting_network_output_count(counts: Sequence[int]) -> int:
    """Exact output pulse count for ideally interleaved input streams.

    Each balancer sends its *first* pulse to Y1, so taking the Y1 branch at
    every level yields ``ceil((n_left + n_right) / 2)`` per node; the
    cascade composes to ``ceil(sum / M)`` overall.
    """
    level = [int(c) for c in counts]
    _check_m(len(level))
    if any(c < 0 for c in level):
        raise ConfigurationError(f"pulse counts must be >= 0, got {counts}")
    while len(level) > 1:
        level = [
            (level[i] + level[i + 1] + 1) // 2 for i in range(0, len(level), 2)
        ]
    return level[0]


def build_counting_network(circuit: Circuit, name: str, m_inputs: int) -> Block:
    """Assemble an M:1 counting network of behavioural balancers.

    Exposed ports: inputs ``a0`` .. ``a{M-1}``; output ``y`` (the root's Y1;
    the root's Y2 is exposed as ``y_alt`` — either output carries the sum,
    as the paper notes).
    """
    _check_m(m_inputs)
    block = Block(circuit, name)

    # Build level by level; each node forwards its Y1 to the next level.
    balancer_index = 0
    frontier: List[Balancer] = []
    for i in range(m_inputs // 2):
        node = block.add(Balancer(block.subname(f"l0_b{i}")))
        block.expose_input(f"a{2 * i}", node, "a")
        block.expose_input(f"a{2 * i + 1}", node, "b")
        frontier.append(node)
        balancer_index += 1

    level = 1
    while len(frontier) > 1:
        next_frontier: List[Balancer] = []
        for i in range(0, len(frontier), 2):
            node = block.add(Balancer(block.subname(f"l{level}_b{i // 2}")))
            circuit.connect(frontier[i], "y1", node, "a")
            circuit.connect(frontier[i + 1], "y1", node, "b")
            next_frontier.append(node)
            balancer_index += 1
        frontier = next_frontier
        level += 1

    root = frontier[0]
    block.expose_output("y", root, "y1")
    block.expose_output("y_alt", root, "y2")
    return block


class CountingNetwork:
    """Convenience wrapper owning a circuit with a single counting network.

    Drives input pulse trains and reads back the output count; used by
    tests and small structural experiments.
    """

    def __init__(self, m_inputs: int, trace=None):
        self.m_inputs = _check_m(m_inputs)
        #: Optional :class:`repro.trace.TraceSession` passed to every
        #: simulator this wrapper builds (attach taps separately).
        self.trace = trace
        self.circuit = Circuit(f"counting_{m_inputs}to1")
        self.block = build_counting_network(self.circuit, "cn", m_inputs)
        self.output = self.block.probe_output("y")
        self.circuit.seal()

    @property
    def jj_count(self) -> int:
        return self.block.jj_count

    def run(self, input_times: Sequence[Sequence[int]]):
        """Simulate with one pulse-time list per input; returns output count."""
        from repro.pulsesim.simulator import Simulator

        if len(input_times) != self.m_inputs:
            raise ConfigurationError(
                f"expected {self.m_inputs} input trains, got {len(input_times)}"
            )
        sim = Simulator(self.circuit, trace=self.trace)
        sim.reset()
        for index, times in enumerate(input_times):
            self.block.drive(sim, f"a{index}", times)
        sim.run()
        return self.output.count()
