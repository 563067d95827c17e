"""perfbench's shard fabric shape, shared by the shard tests."""

from repro.cells.interconnect import IdealMerger, Jtl
from repro.pulsesim import Circuit
from repro.shard.partition import LinkSpec

#: perfbench's high-lookahead link: 250 ps per hop, a 192-flit FIFO.
WIDE_LINK = LinkSpec(serialization_fs=1_000, hop_latency_fs=249_000,
                     fifo_depth=192)


def wide_fabric(columns=8, depth=64):
    """``columns`` deep JTL columns into an IdealMerger reduction tree, its
    root probed; returns the circuit and the column heads."""
    circuit = Circuit(f"wide{columns}x{depth}")
    heads, tails = [], []
    for column in range(columns):
        stage = circuit.add(Jtl(f"col{column}_0"))
        heads.append(stage)
        for index in range(1, depth):
            nxt = circuit.add(Jtl(f"col{column}_{index}"))
            circuit.connect(stage, "q", nxt, "a", delay=500)
            stage = nxt
        tails.append((stage, "q"))
    level = 0
    while len(tails) > 1:
        merged = []
        for pair in range(0, len(tails), 2):
            merger = circuit.add(IdealMerger(f"m{level}_{pair // 2}"))
            circuit.connect(*tails[pair], merger, "a", delay=500)
            circuit.connect(*tails[pair + 1], merger, "b", delay=500)
            merged.append((merger, "q"))
        tails = merged
        level += 1
    circuit.probe(*tails[0])
    return circuit, heads
