"""Every finite-state cell is one transition table, run inline everywhere."""

import pytest

from repro import cells
from repro.core.racelogic_ops import Inhibit
from repro.errors import NetlistError
from repro.pulsesim import Circuit, kernel
from repro.pulsesim.element import TableCell

TABLE_CELLS = (
    cells.Jtl, cells.Splitter, cells.Ndro, cells.Dff, cells.Dff2, cells.Tff,
    cells.Tff2, cells.Inverter, cells.FirstArrival, cells.LastArrival,
    cells.Bff, cells.Mux, cells.Demux, cells.ClockedAnd, cells.ClockedOr,
    cells.ClockedXor, Inhibit,
)


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


def test_malformed_table_is_rejected_at_class_definition():
    with pytest.raises(NetlistError, match="TRANSITIONS"):

        class Broken(TableCell):  # clk row missing for state 1
            INPUTS = ("a", "clk")
            OUTPUTS = ("q",)
            TRANSITIONS = {"a": ((1, ()), (1, ())), "clk": ((0, ("q",)),)}
