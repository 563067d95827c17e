"""Every finite-state cell is one transition table, run inline everywhere."""

import pytest

import repro.cells
import repro.core
import repro.pulsesim.faults
from repro import cells
from repro.cells.interconnect import IdealMerger, Merger
from repro.core.balancer import Balancer, BffRoutingUnit
from repro.core.counting import CountingNetwork
from repro.core.dpu import DotProductUnit
from repro.core.racelogic_ops import Inhibit
from repro.encoding.epoch import EpochSpec
from repro.errors import NetlistError
from repro.pulsesim import Circuit, kernel
from repro.pulsesim.element import Element, TableCell

TABLE_CELLS = (
    cells.Jtl, cells.Splitter, cells.Ndro, cells.Dff, cells.Dff2, cells.Tff,
    cells.Tff2, cells.Inverter, cells.FirstArrival, cells.LastArrival,
    cells.Bff, cells.Mux, cells.Demux, cells.ClockedAnd, cells.ClockedOr,
    cells.ClockedXor, Inhibit, Merger, IdealMerger, Balancer, BffRoutingUnit,
)

#: The library cells that still run their own ``handle`` (FIFO, protocol,
#: burst and count-dependent timing, RNG streams) and so compile to CALL.
CALL_CELLS = {
    "NocLink", "PulseIntegrator", "RlBuffer", "RlMemoryCell",
    "RlShiftRegister", "BurstPnm", "DropChannel", "JitterChannel",
}


@pytest.mark.parametrize("cls", TABLE_CELLS, ids=lambda cls: cls.__name__)
def test_every_port_compiles_inline_in_both_fast_kernels(cls):
    assert issubclass(cls, TableCell)
    assert cls.handle is TableCell.handle and cls.reset is TableCell.reset
    circuit = Circuit()
    cell = circuit.add(cls("c"))
    circuit.seal()
    circuit.seal_batch()  # refuses any cell without a batch opcode
    for port in cell.input_names:
        assert circuit._ops[(id(cell), port)][0] != kernel._OP_CALL


def _library_cells(root=Element):
    for cls in root.__subclasses__():
        if cls.__module__.startswith("repro."):
            yield cls
            yield from _library_cells(cls)


def test_only_the_untabled_cells_keep_their_own_handle():
    # repro.core re-exports lazily: resolve every name to load each cell.
    assert all(getattr(repro.core, name) for name in repro.core.__all__)
    assert repro.cells and repro.pulsesim.faults  # loaded
    own_handle = {
        cls.__name__ for cls in _library_cells()
        if cls.handle is not TableCell.handle
    }
    assert own_handle == CALL_CELLS


@pytest.mark.parametrize("build", [
    lambda: DotProductUnit(EpochSpec(bits=5), 8, bipolar=True).circuit,
    lambda: CountingNetwork(8).circuit,
], ids=["serve-dpu", "counting-network-8"])
def test_balancer_blocks_compile_monotonic(build):
    """No CALL opcode and positive delays: contended buckets are sorted
    once instead of heap-ordered per event."""
    circuit = build()
    assert kernel.compile_circuit(circuit).monotonic


def test_malformed_table_is_rejected_at_class_definition():
    with pytest.raises(NetlistError, match="TRANSITIONS"):

        class Broken(TableCell):  # clk row missing for state 1
            INPUTS = ("a", "clk")
            OUTPUTS = ("q",)
            TRANSITIONS = {"a": ((1, ()), (1, ())), "clk": ((0, ("q",)),)}


@pytest.mark.parametrize("guards, counter, rows", [
    (("t",), "n", ((0, ("q",)),)),  # one row short of the guarded half
    ((), "", ((0, ("q",), 1),)),  # counted row in an untimed cell
    (("t",), "", ((0, ("q",)), (0, (), 1))),  # counted row, no COUNTER
    (("t", "u", "v"), "n", ((0, ()),) * 8),  # three guards
])
def test_malformed_timed_table_is_rejected(guards, counter, rows):
    with pytest.raises(NetlistError, match="TRANSITIONS"):

        class Broken(TableCell):
            INPUTS = ("a",)
            OUTPUTS = ("q",)
            GUARDS = guards
            COUNTER = counter
            TRANSITIONS = {"a": rows}
