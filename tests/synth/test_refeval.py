"""The reference evaluator: the semantic ground truth the compiled
netlist must reproduce, tied to the paper's quantised-product model."""

import pytest

from repro.core.multiplier import unipolar_product_count
from repro.synth import evaluate, expected_levels
from repro.synth.expand import PrimGraph, PrimNode
from repro.synth.refeval import check_product_model, uniform_slots


def _graph(bits=3):
    return PrimGraph(name="t", bits=bits)


def test_uniform_slots_matches_floor_grid():
    assert uniform_slots(0, 8) == []
    assert uniform_slots(8, 8) == list(range(8))
    assert uniform_slots(3, 8) == [0, 2, 5]  # floor(k*8/3)


@pytest.mark.parametrize("level", range(0, 9))
@pytest.mark.parametrize("weight", range(0, 9))
def test_product_matches_closed_form(level, weight):
    graph = _graph()
    graph.emit(PrimNode("x", "sconst", level=level))
    graph.emit(PrimNode("w", "rconst", level=weight))
    graph.emit(PrimNode("p", "mul", ("x", "w")))
    graph.outputs.append(("p", "p"))
    got = expected_levels(graph)["p"]
    assert got == unipolar_product_count(level, weight, 8)
    check_product_model(graph)  # must not raise


def test_add_concatenates_and_sorts():
    graph = _graph()
    graph.emit(PrimNode("a", "sconst", level=3))
    graph.emit(PrimNode("b", "sconst", level=5))
    graph.emit(PrimNode("s", "add", ("a", "b")))
    graph.outputs.append(("s", "s"))
    value = evaluate(graph)["s"]
    assert value.level == 8
    assert list(value.ticks) == sorted(value.ticks)
    merged = sorted(uniform_slots(3, 8) + uniform_slots(5, 8))
    assert list(value.ticks) == merged


def test_delay_shifts_stream_ticks_and_rl_levels():
    graph = _graph()
    graph.emit(PrimNode("x", "sconst", level=2))
    graph.emit(PrimNode("dx", "delay", ("x",), slots=3))
    graph.emit(PrimNode("w", "rconst", level=4))
    graph.emit(PrimNode("dw", "delay", ("w",), slots=2))
    graph.outputs.append(("dx", "dx"))
    graph.outputs.append(("dw", "dw"))
    values = evaluate(graph)
    assert list(values["dx"].ticks) == [t + 3 for t in uniform_slots(2, 8)]
    assert values["dw"].encoding == "rl"
    assert values["dw"].level == 6
    assert values["dw"].ticks == ()


def test_delayed_stream_through_mul_filters_on_shifted_slots():
    # A delayed stream can carry ticks at slot >= n_max; the RL filter
    # still passes exactly the ticks strictly before the reset slot.
    graph = _graph()
    graph.emit(PrimNode("x", "sconst", level=4))
    graph.emit(PrimNode("dx", "delay", ("x",), slots=5))
    graph.emit(PrimNode("w", "rconst", level=7))
    graph.emit(PrimNode("p", "mul", ("dx", "w")))
    graph.outputs.append(("p", "p"))
    ticks = [t + 5 for t in uniform_slots(4, 8)]
    assert expected_levels(graph)["p"] == sum(1 for t in ticks if t < 7)


def test_output_declaration_order_is_preserved():
    graph = _graph()
    graph.emit(PrimNode("a", "sconst", level=1))
    graph.emit(PrimNode("b", "sconst", level=2))
    graph.outputs.append(("b", "b"))
    graph.outputs.append(("a", "a"))
    assert list(evaluate(graph)) == ["b", "a"]
