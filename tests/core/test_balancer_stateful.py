"""Stateful property test: the balancer against an independent Mealy model.

Hypothesis drives random pulse sequences (spaced, hazard-zone, and
coincident arrivals, plus gaps exactly on and one femtosecond off each
timing threshold) into two balancers — the shipped timing, and one whose
coincidence window reaches past its t_BFF — and checks every output
pulse time and the hazard count against a separately-written reference
of the Fig 6c state machine, including the case (ii) coincidence and
case (iii) hazard rules, on the reference, sealed and batch kernels.
"""

from hypothesis import given, settings, strategies as st

from repro.core.balancer import Balancer
from repro.pulsesim import BatchSimulator, Circuit, Simulator
from tests.strategies import BATCH_LANES, lane_trains

T_BFF = 12_000
COINCIDENCE = 2_000

#: Inter-arrival gaps by class; the last four sit exactly on and one
#: femtosecond past the shipped thresholds (and so on the swapped
#: balancer's thresholds too).
GAPS = {
    "spaced": T_BFF + 3_000,
    "hazard": 6_000,
    "coincident": 0,
    "at-coincidence": COINCIDENCE,
    "past-coincidence": COINCIDENCE + 1,
    "under-bff": T_BFF - 1,
    "at-bff": T_BFF,
}

#: name -> (t_bff_fs, coincidence_fs): the shipped balancer, and one whose
#: coincidence window is at least its transition time.
BALANCERS = {
    "shipped": (T_BFF, COINCIDENCE),
    "wide": (COINCIDENCE, T_BFF),
}


class _ReferenceMealy:
    """Independent re-implementation of the routing rules for checking."""

    def __init__(self, t_bff, coincidence):
        self.t_bff = t_bff
        self.coincidence = coincidence
        self.state = 0
        self.hazards = 0
        self.last_time = None
        self.last_port = None
        self.last_index = None
        self.pair_open = False

    def route(self, port, time):
        if self.last_time is not None:
            gap = time - self.last_time
            if (gap <= self.coincidence and port != self.last_port
                    and self.pair_open):
                index = self.state
                self.state ^= 1
                self.pair_open = False
            elif gap < self.t_bff:
                index = self.last_index
                self.hazards += 1
                self.pair_open = False
            else:
                index = self.state
                self.state ^= 1
                self.pair_open = True
        else:
            index = self.state
            self.state ^= 1
            self.pair_open = True
        self.last_time = time
        self.last_port = port
        self.last_index = index
        return index


def _event_sequences():
    """Random (port, gap-class) sequences covering all three timing cases."""
    return st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(sorted(GAPS))),
        min_size=1, max_size=30,
    )


def _timed(sequence):
    """Concrete ``(port, time)`` pulses, first at 10 ps."""
    pulses = []
    now = 10_000
    for index, (port, gap_class) in enumerate(sequence):
        if index:
            now += GAPS[gap_class]
        pulses.append((port, now))
    return pulses


def _expected(pulses, t_bff, coincidence, delay):
    """``(y1 times, y2 times, hazards)`` in the kernels' event order: by
    time, and port ``a`` before ``b`` at one time (its train is
    scheduled first and both ports share one priority)."""
    reference = _ReferenceMealy(t_bff, coincidence)
    outputs = ([], [])
    for port, time in sorted(pulses, key=lambda pulse: (pulse[1], pulse[0])):
        outputs[reference.route(port, time)].append(time + delay)
    return outputs[0], outputs[1], reference.hazards


def _build():
    """Both balancers in one circuit: ``(circuit, {name: (cell, probes)})``."""
    circuit = Circuit("balancers")
    cells = {}
    for name, (t_bff, coincidence) in BALANCERS.items():
        cell = circuit.add(
            Balancer(name, t_bff_fs=t_bff, coincidence_fs=coincidence)
        )
        cells[name] = (cell, (circuit.probe(cell, "y1"),
                              circuit.probe(cell, "y2")))
    return circuit, cells


def _trains(pulses):
    return {
        port: [time for p, time in pulses if p == port] for port in ("a", "b")
    }


@settings(deadline=None, max_examples=200)
@given(sequence=_event_sequences())
def test_balancer_matches_reference_mealy(sequence):
    pulses = _timed(sequence)
    for kernel in ("reference", "sealed"):
        circuit, cells = _build()
        sim = Simulator(circuit, kernel=kernel)
        for cell, _probes in cells.values():
            for port, times in _trains(pulses).items():
                sim.schedule_train(cell, port, times)
        sim.run()
        for name, (cell, (p1, p2)) in cells.items():
            y1, y2, hazards = _expected(pulses, *BALANCERS[name], cell.delay)
            assert (p1.times, p2.times) == (y1, y2), (kernel, name)
            assert cell.hazard_events == hazards, (kernel, name)
            # No pulses lost, ever — the balancer's defining property.
            assert len(y1) + len(y2) == len(pulses)

    # Batch lanes replay stimulus prefixes: lane k drops the last k pulses.
    prefixes = lane_trains(pulses, BATCH_LANES)
    circuit, cells = _build()
    sim = BatchSimulator(circuit, batch=BATCH_LANES)
    for cell, _probes in cells.values():
        for port in ("a", "b"):
            sim.schedule_lane_trains(
                cell, port, [_trains(prefix)[port] for prefix in prefixes]
            )
    sim.run()
    for lane, prefix in enumerate(prefixes):
        for name, (cell, _probes) in cells.items():
            y1, y2, hazards = _expected(prefix, *BALANCERS[name], cell.delay)
            assert sim.port_times(cell, "y1", lane) == y1, (lane, name)
            assert sim.port_times(cell, "y2", lane) == y2, (lane, name)
            assert sim.element_attr(cell, "hazard_events", lane) == hazards


@settings(deadline=None, max_examples=100)
@given(sequence=_event_sequences())
def test_balancer_split_is_bounded(sequence):
    """Even with hazards, the two outputs differ by at most the hazard
    count plus one (the bias the paper warns about is gradual)."""
    times = []
    now = 10_000
    for port, gap_class in sequence:
        now += GAPS[gap_class]
        times.append((port, now))

    circuit = Circuit()
    balancer = circuit.add(Balancer("bal"))
    p1 = circuit.probe(balancer, "y1")
    p2 = circuit.probe(balancer, "y2")
    sim = Simulator(circuit)
    for port, time in times:
        sim.schedule_input(balancer, port, time)
    sim.run()
    imbalance = abs(p1.count() - p2.count())
    assert imbalance <= balancer.hazard_events + 1
