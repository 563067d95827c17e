"""NetlistSpec: serialisation, validation, building, and transforms."""

import pytest

from repro.errors import VerificationError
from repro.verify.spec import (
    CellSpec,
    NetlistSpec,
    WireSpec,
    build,
    cell_registry,
    pool_outputs,
    remove_cell,
    shift_stimulus,
    spec_from_json,
    splice_cell,
    swap_cell_inputs,
    template,
    validate,
)


def _chain():
    """entry -> Jtl -> Merger(b <- entry.q2); merger output unconsumed."""
    return NetlistSpec(
        cells=(
            CellSpec("Jtl", (WireSpec(0, 500),)),
            CellSpec("Merger", (WireSpec(2, 0), WireSpec(1, 9_000))),
        ),
        stimulus=(0, 1_000, 1_000),
    )


def test_json_round_trip():
    spec = _chain()
    assert spec_from_json(spec.to_json()) == spec


def test_params_round_trip():
    spec = NetlistSpec(cells=(
        CellSpec("DropChannel", (WireSpec(0),),
                 params=(("drop_rate", 0.0),)),
    ))
    again = spec_from_json(spec.to_json())
    assert again == spec
    assert again.to_json()["cells"][0]["params"] == {"drop_rate": 0.0}


def test_key_is_stable_and_content_sensitive():
    spec = _chain()
    assert spec.key() == _chain().key()
    assert spec.key() != shift_stimulus(spec, 1).key()


def test_malformed_json_raises():
    with pytest.raises(VerificationError, match="malformed"):
        spec_from_json({"cells": [{"kind": "Jtl"}], "stimulus": []})


def test_validate_rejects_unknown_kind():
    spec = NetlistSpec(cells=(CellSpec("Warp", (WireSpec(0),)),))
    with pytest.raises(VerificationError, match="unknown cell kind"):
        validate(spec)


def test_validate_rejects_wrong_input_count():
    spec = NetlistSpec(cells=(CellSpec("Merger", (WireSpec(0),)),))
    with pytest.raises(VerificationError, match="input ports"):
        validate(spec)


def test_validate_rejects_forward_reference():
    spec = NetlistSpec(cells=(CellSpec("Jtl", (WireSpec(2),)),))
    with pytest.raises(VerificationError, match="earlier pool output"):
        validate(spec)


def test_validate_rejects_double_driven_output():
    spec = NetlistSpec(cells=(
        CellSpec("Jtl", (WireSpec(0),)),
        CellSpec("Jtl", (WireSpec(0),)),
    ))
    with pytest.raises(VerificationError, match="two sinks"):
        validate(spec)


def test_validate_rejects_negative_delay_and_stimulus():
    with pytest.raises(VerificationError, match="negative wire delay"):
        validate(NetlistSpec(cells=(CellSpec("Jtl", (WireSpec(0, -1),)),)))
    with pytest.raises(VerificationError, match="negative stimulus"):
        validate(NetlistSpec(stimulus=(-5,)))


def test_template_is_cached_and_unknown_kind_raises():
    assert template("Jtl") is template("Jtl")
    with pytest.raises(VerificationError, match="unknown cell kind"):
        template("Nope")


def test_every_registry_kind_has_a_template():
    for kind in cell_registry():
        assert template(kind).input_names


def test_build_names_probes_and_pool():
    built = build(_chain())
    assert [e.name for e in built.circuit.elements] == ["entry", "c0", "c1"]
    # Unconsumed outputs: only the merger's q (pool slot 3).
    assert [probe.label for probe in built.probes] == ["c1.q"]
    assert built.pool[3] == (built.circuit["c1"], "q")
    assert pool_outputs(_chain())[3] == (1, "q")


def test_build_rejects_bad_params():
    spec = NetlistSpec(cells=(
        CellSpec("Jtl", (WireSpec(0),), params=(("warp", 9),)),
    ))
    with pytest.raises(VerificationError, match="bad constructor params"):
        build(spec)


def test_shift_stimulus():
    assert shift_stimulus(_chain(), 7).stimulus == (7, 1_007, 1_007)


def test_swap_cell_inputs():
    swapped = swap_cell_inputs(_chain(), 1)
    assert swapped.cells[1].inputs == (WireSpec(1, 9_000), WireSpec(2, 0))
    assert swap_cell_inputs(swapped, 1) == _chain()


def test_splice_cell_remaps_later_sources():
    spliced = splice_cell(_chain(), 1, 1, "Jtl")
    validate(spliced)
    # The new Jtl takes over entry.q2 -> merger.b (source 1, delay 9000)
    # and feeds the merger's b port through a zero-delay wire.
    assert spliced.cells[1] == CellSpec("Jtl", (WireSpec(1, 9_000),))
    # merger input a keeps its pre-splice source (slot 2, the chain Jtl);
    # input b now comes from the spliced cell's output (slot 3).
    assert spliced.cells[2].inputs == (WireSpec(2, 0), WireSpec(3, 0))


def test_splice_rejects_multiport_kinds():
    with pytest.raises(VerificationError, match="1-in/1-out"):
        splice_cell(_chain(), 1, 0, "Splitter")


def test_remove_cell_leaf_only():
    spec = _chain()
    shrunk = remove_cell(spec, 1)  # the merger is a leaf
    validate(shrunk)
    assert len(shrunk.cells) == 1
    with pytest.raises(VerificationError, match="leaf"):
        remove_cell(spec, 0)  # the Jtl still drives the merger
