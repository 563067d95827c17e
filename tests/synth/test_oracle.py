"""The synth-differential oracle: registration, teeth, and corpus replay."""

from repro.synth import compile_spec
from repro.verify.corpus import corpus_entry, replay_entry
from repro.verify.generator import example_rng, generate_spec, profile
from repro.verify.oracles import ORACLES, oracle_synth_differential, run_oracle
from repro.verify.spec import CellSpec, NetlistSpec, WireSpec


def _netlist_spec(example=0):
    return generate_spec(example_rng(0, example), profile("smoke"))


def test_registered_as_the_thirteenth_oracle():
    assert len(ORACLES) == 13
    assert ORACLES["synth-differential"] is oracle_synth_differential
    # Canonical order keeps the two most expensive oracles (soundness
    # sweep, process-spawning shard differential) at the very end.
    assert list(ORACLES).index("synth-differential") == len(ORACLES) - 3


def test_passes_on_campaign_specs():
    for example in range(5):
        result = run_oracle("synth-differential", _netlist_spec(example))
        assert result.oracle == "synth-differential"
        assert result.applicable
        assert result.ok, result.detail


def test_dataflow_spec_is_derived_from_the_netlist_spec_key():
    spec = _netlist_spec()
    first = oracle_synth_differential(spec)
    second = oracle_synth_differential(spec)
    assert first == second  # content-addressed: fully deterministic
    other = _netlist_spec(example=1)
    assert spec.key() != other.key()
    assert first.detail != oracle_synth_differential(other).detail


def test_oracle_has_teeth_against_a_decode_defect(monkeypatch):
    # Corrupt the compiled program's expected levels: the oracle must
    # notice the simulation no longer matches the reference evaluation.
    real_compile = compile_spec

    def sabotaged(spec, **kwargs):
        import dataclasses

        program = real_compile(spec, **kwargs)
        port = program.outputs[0]
        program.outputs[0] = dataclasses.replace(
            port, expected_level=port.expected_level + 1
        )
        return program

    monkeypatch.setattr("repro.synth.compile_spec", sabotaged)
    result = oracle_synth_differential(_netlist_spec())
    assert not result.ok
    assert "decoded" in result.detail


def test_corpus_replay_reaches_the_synth_oracle():
    spec = NetlistSpec(cells=(CellSpec("Jtl", (WireSpec(0),)),),
                       stimulus=(0, 4_000))
    entry = corpus_entry("synth-differential", "", spec)
    result = replay_entry(entry)
    assert result.oracle == "synth-differential"
    assert result.ok
