"""Transfer functions read off transition tables: every table cell's
simulated outputs stay inside its derived bounds, and each derivation
rule gives the bound it promises."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.domain import INF, NONE, PulseBounds, stimulus_bounds
from repro.analyze.transfer import (
    TRANSFER,
    transfer,
    transfer_for,
    transfer_table,
    transfer_unknown,
)
from repro.cells.bff import Bff
from repro.cells.interconnect import Jtl, Merger
from repro.cells.logic import FirstArrival, Inverter, LastArrival
from repro.cells.mux import Demux, Mux
from repro.cells.noc import NocLink
from repro.cells.storage import Dff
from repro.cells.toggle import Tff, Tff2
from repro.core.balancer import Balancer
from repro.core.buffer import PulseIntegrator, RlBuffer, RlMemoryCell, RlShiftRegister
from repro.core.pnm import BurstPnm
from repro.core.racelogic_ops import Inhibit
from repro.pulsesim import Circuit, Simulator
from repro.pulsesim.element import PortSpec, TableCell
from repro.pulsesim.export import default_cell_registry

TABLE_CELLS = sorted(
    [cls for cls in default_cell_registry().values()
     if issubclass(cls, TableCell)] + [Inhibit],
    key=lambda cls: cls.__name__,
)

_DEAD = Merger("m").dead_time
_PAIR = Balancer("b").coincidence_fs
_T_BFF = Balancer("b").t_bff_fs
#: Spacings on both sides of the merger dead time, the balancer's
#: coincidence window and t_BFF.
_EDGES = sorted({0, 1} | {t + d for t in (_DEAD, _PAIR, _T_BFF)
                          for d in (-1, 0, 1, 2)})

_trains = st.lists(
    st.one_of(st.sampled_from(_EDGES), st.integers(0, 3 * _T_BFF)),
    max_size=8,
).map(lambda gaps: [sum(gaps[:i]) for i in range(1, len(gaps) + 1)])


def test_covers_every_table_cell():
    assert len(TABLE_CELLS) == 21


@pytest.mark.parametrize("cls", TABLE_CELLS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reference_kernel_stays_inside_derived_bounds(cls, data):
    cell = cls("cell")
    circuit = Circuit("one-cell")
    circuit.add(cell)
    probes = {port: circuit.probe(cell, port) for port in cell.output_names}
    trains = {port: data.draw(_trains, label=port)
              for port in cell.input_names}
    sim = Simulator(circuit, kernel="reference")
    for port, times in trains.items():
        sim.schedule_train(cell, port, times)
    sim.run()
    bounds = transfer(cell, {port: stimulus_bounds(times)
                             for port, times in trains.items()})
    for port, probe in probes.items():
        times = list(probe.times)
        out = bounds[port]
        assert out.contains_count(len(times)), (port, times, out)
        assert all(out.contains_time(t) for t in times), (port, times, out)
        assert all(out.admits_spacing(later - earlier)
                   for earlier, later in zip(times, times[1:])), (port, out)


def test_registry_holds_only_cells_without_a_table():
    registered = {cls.__name__: cls for cls in (
        NocLink, PulseIntegrator, RlBuffer, RlMemoryCell, RlShiftRegister,
        BurstPnm, *default_cell_registry().values())}
    assert set(TRANSFER) <= set(registered)
    assert not [name for name in TRANSFER
                if issubclass(registered[name], TableCell)]
    assert all(transfer_for(cls) is not transfer_unknown
               for cls in TABLE_CELLS)


def test_a_cell_that_overrides_handle_is_not_read_off_its_table():
    class LateJtl(Jtl):
        def handle(self, sim, port, time):
            self.emit(sim, "q", time + self.delay + 1)

    assert transfer_for(LateJtl) is transfer_unknown


def _train(count, gap=1_000, start=0):
    return stimulus_bounds([start + i * gap for i in range(count)])


def test_cut_rule_bounds_emissions_by_the_ports_that_rearm():
    dff = Dff("d", delay=0)
    out = transfer(dff, {"d": _train(2), "clk": _train(5)})["q"]
    assert (out.n_lo, out.n_hi) == (0, 2)  # min(d, clk)
    gate = FirstArrival("fa", delay=0)
    out = transfer(gate, {"a": _train(4), "b": _train(4),
                          "reset": _train(2)})["q"]
    assert out.n_hi == 3  # min(a + b, 1 + reset)
    gate = LastArrival("la", delay=0)
    out = transfer(gate, {"a": _train(4), "b": _train(2),
                          "reset": _train(5)})["q"]
    assert out.n_hi == 2  # min(a, b, 1 + reset)
    # A set needs a reset between two emissions.
    bff = Bff("b", delay=0)
    out = transfer(bff, {"s1": _train(5), "r1": _train(1)})
    assert out["q1"].n_hi == 2
    assert out["nq1"].n_hi == 1 and out["q2"].is_none


def test_first_pulse_rule_guarantees_one_emission():
    gate = FirstArrival("fa", delay=0)
    out = transfer(gate, {"a": _train(3), "reset": _train(1)})["q"]
    assert out.n_lo == 1
    inhibit = Inhibit("i", delay=0)
    assert transfer(inhibit, {"a": _train(2)})["q"].n_lo == 1
    # A blocking pulse may land first: no emission is guaranteed.
    blocked = transfer(inhibit, {"a": _train(2), "b": _train(1)})["q"]
    assert blocked.n_lo == 0


def test_rearm_rule_loses_one_emission_per_disarming_pulse():
    inverter = Inverter("i", delay=0)
    out = transfer(inverter, {"a": _train(2), "clk": _train(5)})["q"]
    assert (out.n_lo, out.n_hi) == (3, 5)
    demux = Demux("d", delay=0)
    a = _train(3)
    out = transfer(demux, {"a": a, "sel0": _train(2)})
    assert out["q0"] == a and out["q1"].is_none
    # Select 1 unreachable: channel 1 contributes nothing.
    mux = Mux("m", delay=0)
    out = transfer(mux, {"a0": a, "a1": _train(4, start=50_000)})["q"]
    assert out == a


def test_one_port_run_rule_follows_the_state_cycle():
    tff = Tff("t", delay=0)
    out = transfer(tff, {"a": _train(5, gap=300)})["q"]
    assert (out.n_lo, out.n_hi, out.gap) == (2, 2, 600)
    endless = transfer(tff, {"a": PulseBounds(0, INF, 0, INF, 300)})["q"]
    assert (endless.n_hi, endless.gap) == (INF, 600)
    tff2 = Tff2("t2", delay=0)
    out = transfer(tff2, {"a": _train(5)})
    assert (out["q1"].n_hi, out["q2"].n_hi) == (3, 2)
    assert transfer(tff2, {})["q1"] is NONE


class _SlowMerger(TableCell):
    """A merger whose dead time lives under another attribute name."""

    INPUTS = (PortSpec("a"), PortSpec("b"), PortSpec("c"))
    OUTPUTS = ("q",)
    GUARDS = ("recovery_fs",)
    TRANSITIONS = dict.fromkeys(("a", "b", "c"), ((0, ("q",)), (0, ())))

    def __init__(self, name, delay=0, recovery_fs=7_000):
        super().__init__(name, delay)
        self.recovery_fs = recovery_fs


def test_window_rule_reads_the_bound_its_guard_names():
    cell = _SlowMerger("s")
    out = transfer(cell, {"a": _train(1), "b": _train(1, start=3_000),
                          "c": NONE})["q"]
    # Arrivals 3 ps apart fall inside the 7 ps dead time: the second may
    # be absorbed, and whatever emerges is spaced a dead time apart.
    assert (out.n_lo, out.n_hi, out.gap) == (1, 2, 7_000)
    assert transfer_table(cell, {"a": _train(1)})["q"].n_lo == 1
