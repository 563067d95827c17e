"""Oracle matrix: every property holds on generated circuits, and each
oracle actually has teeth (a seeded defect trips it)."""

import pytest
from hypothesis import given, settings

from repro.errors import VerificationError
from repro.lint.api import lint_circuit
from repro.lint.report import Report
from repro.pulsesim import Simulator
from repro.verify import oracles
from repro.verify.generator import example_rng, generate_spec, profile
from repro.verify.oracles import (
    ORACLES,
    TIE_ORDER_SENSITIVE,
    oracle_drop_identity,
    oracle_kernel_differential,
    oracle_lint_clean,
    oracle_merger_commutativity,
    oracle_static_soundness,
    oracle_time_shift,
    run_oracle,
)
from repro.verify.spec import CellSpec, NetlistSpec, WireSpec, build
from tests.strategies import verify_specs


@settings(max_examples=25, deadline=None)
@given(verify_specs())
def test_full_matrix_holds_on_generated_specs(spec):
    for name, oracle in ORACLES.items():
        result = oracle(spec)
        assert result.ok, f"{name}: {result.detail}"
        assert result.oracle == name


#: ``--profile ci --seed 0`` example 153 as the generator built it while
#: it spaced only each merger input's latest arrival: lint then reported
#: nothing, yet the entry pulse leaves c0 twice at the same time and
#: merger c3 loses two of the four pulses it then receives.
LATEST_ARRIVAL_SPEC = NetlistSpec(
    cells=(
        CellSpec("IdealMerger", (WireSpec(0), WireSpec(1))),
        CellSpec("Splitter", (WireSpec(2),)),
        CellSpec("Splitter", (WireSpec(4),)),
        CellSpec("Merger", (WireSpec(6), WireSpec(5, 5_000))),
        CellSpec("IdealMerger", (WireSpec(7), WireSpec(3, 1_000))),
        CellSpec("Tff2", (WireSpec(8, 500),)),
    ),
    stimulus=(0,),
)


def test_lint_clean_oracle_rejects_a_single_wave_collision():
    result = oracle_lint_clean(LATEST_ARRIVAL_SPEC)
    assert not result.ok
    assert "[merger-collision]" in result.detail


def test_lint_clean_oracle_runs_a_single_wave(monkeypatch):
    # Were lint ever to pass the circuit, the single-wave run still
    # catches the lost pulse.
    monkeypatch.setattr(oracles, "lint_circuit",
                        lambda *args, **kwargs: Report(target="stub"))
    result = oracle_lint_clean(LATEST_ARRIVAL_SPEC)
    assert not result.ok
    assert "single-wave run collides at {'c3': 2}" in result.detail


@pytest.mark.parametrize("example", [112, 153])
def test_ci_campaign_circuits_keep_what_lint_claims(example):
    # Both examples were lint-clean yet lost a pulse to a single wave.
    spec = generate_spec(example_rng(0, example), profile("ci"))
    built = build(spec)
    assert not lint_circuit(built.circuit,
                            entry_points=[(built.entry, "a")]).diagnostics
    sim = Simulator(built.circuit)
    sim.schedule_input(built.entry, "a", 0)
    sim.run()
    assert not any(getattr(e, "collisions", 0) for e in built.circuit.elements)


def test_static_soundness_checks_proved_mergers_for_collisions(monkeypatch):
    from repro.analyze import checks

    # Stimulus (0,) is a single wave, and c3 is flagged, not proved.
    assert oracle_static_soundness(LATEST_ARRIVAL_SPEC).ok

    def proves_everything(fx):
        return [], 1, 1

    monkeypatch.setattr(checks, "merger_collision_findings",
                        proves_everything)
    result = oracle_static_soundness(LATEST_ARRIVAL_SPEC)
    assert not result.ok
    assert "collisions at mergers the analyzer proved: {'c3': 2}" in \
        result.detail


def test_run_oracle_by_name_and_unknown_name():
    spec = generate_spec(example_rng(0, 0), profile("smoke"))
    assert run_oracle("lint-clean", spec).ok
    with pytest.raises(VerificationError, match="unknown oracle"):
        run_oracle("vibes", spec)


def test_merger_commutativity_inapplicable_without_mergers():
    spec = NetlistSpec(cells=(CellSpec("Jtl", (WireSpec(0),)),),
                       stimulus=(0,))
    result = oracle_merger_commutativity(spec)
    assert result.ok and not result.applicable


def test_identity_oracles_gate_on_tie_order_sensitive_cells():
    assert TIE_ORDER_SENSITIVE == {"Bff", "Dff2", "Mux", "Demux"}
    spec = NetlistSpec(
        cells=(
            CellSpec("Splitter", (WireSpec(0),)),
            CellSpec("Splitter", (WireSpec(2),)),
            CellSpec("Bff", (WireSpec(1), WireSpec(3),
                             WireSpec(4), WireSpec(5))),
        ),
        stimulus=(0, 1_000),
    )
    result = oracle_drop_identity(spec)
    assert result.ok and not result.applicable
    assert "tie-order" in result.detail


def test_kernel_differential_catches_a_reference_only_defect():
    """A cell whose reference ``handle`` drifts from its sealed inline
    opcode is exactly what the differential oracle trips on."""
    from repro.cells import Tff

    from tests.verify.helpers import inline_defect

    spec = NetlistSpec(cells=(CellSpec("Tff", (WireSpec(0),)),),
                       stimulus=(0, 5_000, 10_000, 15_000))
    assert oracle_kernel_differential(spec).ok

    original = Tff.handle

    def sticky(self, sim, port, time):  # never toggles back
        self.state = 1
        original(self, sim, port, time)

    with inline_defect(Tff, sticky):
        result = oracle_kernel_differential(spec)
    assert not result.ok
    assert result.detail


def test_time_shift_catches_absolute_time_defects(monkeypatch):
    """A cell that latches absolute timestamps into its behaviour breaks
    time-translation symmetry — and only that oracle sees it."""
    from repro.cells import Jtl

    spec = NetlistSpec(cells=(CellSpec("Jtl", (WireSpec(0),)),),
                       stimulus=(2_000, 9_000))
    assert oracle_time_shift(spec).ok

    def warped(self, sim, port, time):
        # Extra delay only before t=10ps: not shift-equivariant.
        self.emit(sim, "q", time + self.delay + (100 if time < 10_000 else 0))

    monkeypatch.setattr(Jtl, "handle", warped)
    assert not oracle_time_shift(spec).ok


def test_drop_identity_catches_lossy_channels(monkeypatch):
    """If a zero-rate DropChannel ever ate a pulse, the splice oracle
    notices immediately."""
    from repro.pulsesim.faults import DropChannel

    spec = NetlistSpec(cells=(CellSpec("Jtl", (WireSpec(0),)),),
                       stimulus=(0, 3_000))
    assert oracle_drop_identity(spec).ok

    def lossy(self, sim, port, time):
        self.pulses_seen += 1  # drops everything regardless of rate

    monkeypatch.setattr(DropChannel, "handle", lossy)
    result = oracle_drop_identity(spec)
    assert not result.ok
    assert "recordings" in result.detail or "state" in result.detail
