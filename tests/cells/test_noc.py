"""NocLink: one departure rule, run by the kernels and called directly."""

import random

import pytest

from repro.cells.noc import NocLink
from repro.pulsesim import Circuit, Simulator


def _link():
    # 7 ps minimum latency, 5 ps flit slots, two flits in flight at most.
    return NocLink(
        "link", serialization_fs=5_000, hops=1, hop_latency_fs=2_000,
        fifo_depth=2,
    )


def _arrivals(seed=7, count=300):
    """Bursty arrivals, many at the same time, that overflow the FIFO."""
    rng = random.Random(seed)
    times, now = [], 0
    for _ in range(count):
        now += rng.choice((0, 0, 300, 1_000, 6_000, 40_000))
        times.append(now)
    return times


def test_depart_applies_latency_serialization_and_the_fifo_bound():
    link = _link()
    assert link.depart(0) == 7_000
    assert link.depart(0) == 12_000  # one flit slot behind the first
    assert link.depart(0) is None  # both flits still in flight
    assert link.drops == 1
    # The first flit has left at 7 ps; the next queues behind the second.
    assert link.depart(7_000) == 17_000
    link.reset()
    assert link.drops == 0
    assert link.depart(100) == 7_100


@pytest.mark.parametrize("kernel", ["reference", "sealed"])
def test_handle_and_depart_give_the_same_departures_and_drops(kernel):
    arrivals = _arrivals()
    circuit = Circuit("noc")
    link = circuit.add(_link())
    probe = circuit.probe(link, "q")
    sim = Simulator(circuit, kernel=kernel)
    sim.schedule_train(link, "a", arrivals)
    sim.run()

    direct = _link()
    departures = [t for t in map(direct.depart, arrivals) if t is not None]
    assert direct.drops > 0
    assert probe.times == departures
    assert link.drops == direct.drops
    assert len(departures) + direct.drops == len(arrivals)
