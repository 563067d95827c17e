"""Request parsing, validation limits, and the two derived keys."""

import pytest

from repro.digest import canonical_json
from repro.serve.protocol import (
    BATCHABLE_OPS,
    MAX_LENGTH,
    ProtocolError,
    parse_request,
)


def _dpu_payload(**overrides):
    payload = {
        "op": "dpu.dot",
        "config": {"bits": 4, "slot_fs": 40_000, "length": 2},
        "a_slots": [3, 16],
        "b_counts": [7, 0],
    }
    payload.update(overrides)
    return payload


def test_dpu_dot_parses_and_canonicalises():
    request = parse_request(_dpu_payload())
    assert request.op == "dpu.dot"
    assert request.config == {
        "bipolar": False,
        "bits": 4,
        "length": 2,
        "slot_fs": 40_000,
    }
    assert request.operands == {"a_slots": [3, 16], "b_counts": [7, 0]}
    assert request.deadline_ms is None


def test_dpu_dot_is_the_batchable_op():
    assert "dpu.dot" in BATCHABLE_OPS
    request = parse_request(_dpu_payload())
    other_operands = parse_request(
        _dpu_payload(a_slots=[0, 0], b_counts=[1, 1])
    )
    # Same config -> same batch group, regardless of operands.
    assert request.batch_key() == other_operands.batch_key()
    different_config = parse_request(
        _dpu_payload(config={"bits": 5, "slot_fs": 40_000, "length": 2},
                     a_slots=[3, 16], b_counts=[7, 0])
    )
    assert request.batch_key() != different_config.batch_key()


def test_model_ops_never_share_a_batch_group():
    payload = {
        "op": "pe.mac",
        "config": {"bits": 4, "slot_fs": 40_000},
        "values": [0.5, 0.5, 0.5],
    }
    first = parse_request(payload)
    second = parse_request(payload)
    assert first.batch_key() != second.batch_key()


def test_cache_key_ignores_deadline_but_not_operands():
    base = parse_request(_dpu_payload())
    with_deadline = parse_request(_dpu_payload(deadline_ms=50))
    assert base.cache_key("d") == with_deadline.cache_key("d")
    other = parse_request(_dpu_payload(a_slots=[4, 16]))
    assert base.cache_key("d") != other.cache_key("d")
    # ... and the source digest is part of the address.
    assert base.cache_key("d1") != base.cache_key("d2")


def test_key_material_is_canonical_json():
    request = parse_request(_dpu_payload())
    assert canonical_json(request.config) in request.batch_key()


@pytest.mark.parametrize(
    "mutation",
    [
        {"op": "nope"},
        {"op": 7},
        {"config": []},
        {"config": {"bits": 0, "slot_fs": 40_000, "length": 2}},
        {"config": {"bits": 99, "slot_fs": 40_000, "length": 2}},
        {"config": {"bits": 4, "slot_fs": 40_000, "length": 0}},
        {"config": {"bits": 4, "slot_fs": 40_000, "length": MAX_LENGTH + 1}},
        {"a_slots": [1]},  # wrong arity
        {"a_slots": [1, 99]},  # out of range (> n_max)
        {"a_slots": [1, -1]},
        {"a_slots": [1, 1.5]},  # not an integer
        {"a_slots": [1, True]},  # bool is not an operand
        {"b_counts": "nope"},
        {"deadline_ms": 0},
        {"deadline_ms": -5},
        {"deadline_ms": "soon"},
        # DotProductUnit needs a power-of-two length >= 2.
        {"config": {"bits": 4, "slot_fs": 40_000, "length": 1},
         "a_slots": [1], "b_counts": [1]},
        {"config": {"bits": 4, "slot_fs": 40_000, "length": 3},
         "a_slots": [1, 2, 3], "b_counts": [1, 2, 3]},
        {"config": {"bits": 4, "slot_fs": 40_000, "length": 48},
         "a_slots": [1] * 48, "b_counts": [1] * 48},
    ],
)
def test_dpu_dot_rejects_malformed_payloads(mutation):
    with pytest.raises(ProtocolError):
        parse_request(_dpu_payload(**mutation))


@pytest.mark.parametrize("length", [2, 4, 8, 16, 32, MAX_LENGTH])
def test_dpu_dot_accepts_every_power_of_two_length(length):
    request = parse_request(
        _dpu_payload(
            config={"bits": 4, "slot_fs": 40_000, "length": length},
            a_slots=[1] * length,
            b_counts=[2] * length,
        )
    )
    assert request.config["length"] == length


def test_rejects_non_object_bodies_and_unknown_ops():
    with pytest.raises(ProtocolError):
        parse_request([1, 2, 3])
    with pytest.raises(ProtocolError, match="supported"):
        parse_request({"op": "dpu.transmogrify"})


def test_fir_parses_both_variants():
    for op in ("fir.unary", "fir.binary"):
        request = parse_request(
            {
                "op": op,
                "config": {
                    "bits": 6,
                    "slot_fs": 40_000,
                    "coefficients": [0.5, -0.25],
                },
                "samples": [0.1, -0.2, 0.3],
            }
        )
        assert request.op == op
        assert request.config["coefficients"] == [0.5, -0.25]
        assert request.operands["samples"] == [0.1, -0.2, 0.3]


def test_fir_rejects_out_of_range_samples_and_taps():
    with pytest.raises(ProtocolError):
        parse_request(
            {
                "op": "fir.unary",
                "config": {
                    "bits": 6,
                    "slot_fs": 40_000,
                    "coefficients": [1.5],
                },
                "samples": [0.1],
            }
        )
    with pytest.raises(ProtocolError):
        parse_request(
            {
                "op": "fir.unary",
                "config": {
                    "bits": 6,
                    "slot_fs": 40_000,
                    "coefficients": [0.5],
                },
                "samples": [2.0],
            }
        )


def test_pe_matmul_validates_shapes():
    ok = parse_request(
        {
            "op": "pe.matmul",
            "config": {"bits": 4, "slot_fs": 40_000},
            "a": [[0.5, 0.25]],
            "b": [[0.5], [0.25]],
        }
    )
    assert ok.operands["a"] == [[0.5, 0.25]]
    with pytest.raises(ProtocolError, match="inner dimensions"):
        parse_request(
            {
                "op": "pe.matmul",
                "config": {"bits": 4, "slot_fs": 40_000},
                "a": [[0.5, 0.25]],
                "b": [[0.5]],
            }
        )
    with pytest.raises(ProtocolError, match="equal length"):
        parse_request(
            {
                "op": "pe.matmul",
                "config": {"bits": 4, "slot_fs": 40_000},
                "a": [[0.5], [0.25, 0.5]],
                "b": [[0.5]],
            }
        )
