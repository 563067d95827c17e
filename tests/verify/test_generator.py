"""Generator: determinism, legality, and lint-cleanliness by construction."""

import pytest
from hypothesis import given, settings

from repro.analyze import analyze_circuit
from repro.errors import VerificationError
from repro.lint.api import lint_circuit
from repro.pulsesim import Simulator
from repro.verify.generator import (
    KIND_WEIGHTS,
    PROFILES,
    example_rng,
    generate_spec,
    profile,
)
from repro.verify.spec import build, template, validate
from tests.strategies import verify_specs


def test_profiles_and_unknown_profile():
    assert profile("ci").examples == 200
    assert set(PROFILES) == {"smoke", "ci", "nightly"}
    with pytest.raises(VerificationError, match="unknown profile"):
        profile("exhaustive")


def test_example_rng_is_a_deterministic_substream():
    assert example_rng(3, 7).random() == example_rng(3, 7).random()
    assert example_rng(3, 7).random() != example_rng(3, 8).random()
    assert example_rng(3, 7).random() != example_rng(4, 7).random()


def test_generation_is_deterministic():
    prof = profile("smoke")
    first = [generate_spec(example_rng(0, i), prof) for i in range(10)]
    second = [generate_spec(example_rng(0, i), prof) for i in range(10)]
    assert first == second


def test_specs_respect_profile_envelope():
    prof = profile("smoke")
    for example in range(30):
        spec = generate_spec(example_rng(5, example), prof)
        validate(spec)
        assert 1 <= len(spec.stimulus) <= prof.max_stimulus
        assert all(0 <= t <= prof.max_slot * prof.time_scale
                   for t in spec.stimulus)
        # Cell count can exceed the target via splitter insertion, but
        # only by the largest fan-in the library needs (4-input Bff).
        assert len(spec.cells) <= prof.max_cells + 4


@settings(max_examples=40, deadline=None)
@given(verify_specs())
def test_generated_circuits_are_lint_clean(spec):
    built = build(spec)
    report = lint_circuit(built.circuit, entry_points=[(built.entry, "a")])
    assert not report.diagnostics, report.format_text()


def test_merger_arrivals_are_spaced_by_dead_time():
    # The analyzer proves every dead-time merger the generator places,
    # and a single-wave run (one pulse into the entry at t = 0) loses no
    # pulse; mergers appear often enough in 40 specs.
    prof = profile("ci")
    seen = 0
    for example in range(40):
        spec = generate_spec(example_rng(11, example), prof)
        built = build(spec)
        stats = analyze_circuit(
            built.circuit, entry_points=[(built.entry, "a")]).report.stats
        assert stats["mergers_proved"] == stats["mergers_checked"]
        seen += stats["mergers_checked"]
        sim = Simulator(built.circuit)
        sim.schedule_input(built.entry, "a", 0)
        sim.run()
        assert not any(getattr(e, "collisions", 0)
                       for e in built.circuit.elements)
    assert seen > 0


def test_kind_weights_cover_only_spliceable_library():
    for kind, weight in KIND_WEIGHTS:
        assert weight > 0
        template(kind)  # raises for unknown kinds
    kinds = {kind for kind, _ in KIND_WEIGHTS}
    assert "DropChannel" not in kinds  # fault channels are oracle-only
    assert "JitterChannel" not in kinds
