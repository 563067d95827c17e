"""Power models (Table 3, Fig 21, section 5.4.5).

RSFQ power splits into *active* switching power — per-JJ switching energy
(~I_c * Phi_0 ~ 2e-19 J) times the pulse rate times the number of junctions
a pulse traverses — and *passive* bias power from the resistive current
distribution network.  Active constants are calibrated against Table 3
(multiplier 9e-5 mW, balancer 17e-5 mW at activity 0.5) and the DPU row
composes from them; passive power is pinned per block where the paper
states it, with a per-JJ fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.models import technology as tech

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pulsesim.netlist import Circuit
    from repro.trace.session import TraceSession

#: Junction hops a pulse traverses through each block's datapath; together
#: with the cycle time these reproduce the Table 3 active-power rows.
MULTIPLIER_ACTIVE_HOPS = 8
BALANCER_ACTIVE_HOPS = 20

#: Paper-stated passive (bias) power per block, watts.
MULTIPLIER_PASSIVE_W = 0.05e-3
BALANCER_PASSIVE_W = 0.10e-3

#: Paper-stated unipolar PE power (section 5.4.5), watts.
PE_ACTIVE_W = 0.8e-6
PE_PASSIVE_W = 262e-6

#: CMOS reference the paper compares against ("three orders of magnitude
#: smaller than CMOS (~1 mW)").
CMOS_REFERENCE_ACTIVE_W = 1e-3


def _check_activity(activity: float) -> None:
    if not 0.0 <= activity <= 1.0:
        raise ConfigurationError(f"activity must be in [0, 1], got {activity}")


def active_power_w(hops: int, cycle_fs: int, activity: float) -> float:
    """Generic active power: E_sw * hops * (activity / cycle)."""
    _check_activity(activity)
    if hops < 1 or cycle_fs <= 0:
        raise ConfigurationError(
            f"need hops >= 1 and positive cycle, got {hops}, {cycle_fs}"
        )
    pulse_rate_hz = activity / (cycle_fs * 1e-15)
    return tech.E_SWITCH_J * hops * pulse_rate_hz


def multiplier_active_w(activity: float = 0.5) -> float:
    """Unary multiplier active power (Table 3: 9e-5 mW at activity 0.5)."""
    return active_power_w(MULTIPLIER_ACTIVE_HOPS, tech.T_INV_FS, activity)


def balancer_active_w(activity: float = 0.5) -> float:
    """Balancer active power (Table 3: 17e-5 mW at activity 0.5)."""
    return active_power_w(BALANCER_ACTIVE_HOPS, tech.T_BFF_FS, activity)


def dpu_active_w(
    length: int,
    activity: float = 0.5,
    *,
    multiplier_activity: float = None,
    balancer_activity: float = None,
) -> float:
    """DPU active power: L multipliers + (L - 1) counting-network balancers.

    ``multiplier_activity`` / ``balancer_activity`` override the shared
    ``activity`` per component — used to plug in *measured* switching
    activity from a traced run (:mod:`repro.trace.activity`).
    """
    if length < 2:
        raise ConfigurationError(f"length must be >= 2, got {length}")
    mult_act = activity if multiplier_activity is None else multiplier_activity
    bal_act = activity if balancer_activity is None else balancer_activity
    return length * multiplier_active_w(mult_act) + (length - 1) * balancer_active_w(
        bal_act
    )


def dpu_passive_w(length: int) -> float:
    """DPU passive power from the per-block Table 3 values."""
    if length < 2:
        raise ConfigurationError(f"length must be >= 2, got {length}")
    return length * MULTIPLIER_PASSIVE_W + (length - 1) * BALANCER_PASSIVE_W


def passive_power_w(jj_count: int) -> float:
    """Per-JJ fallback passive power for blocks the paper does not pin."""
    if jj_count < 0:
        raise ConfigurationError(f"jj_count must be >= 0, got {jj_count}")
    return jj_count * tech.P_PASSIVE_PER_JJ_W


def ersfq_power_w(active_w: float) -> float:
    """ERSFQ/eSFQ eliminate passive power (at ~1.4x area, section 5.4.5)."""
    return active_w


# -- event-counted switching energy (static envelope vs measured activity) -----
def switching_energy_j(events: int) -> float:
    """Total switching energy of ``events`` JJ switching events.

    The event convention — each pulse a cell emits switches that cell's
    ``jj_count`` junctions once — is shared by the static envelope
    (:attr:`repro.analyze.api.Analysis.switching_events`) and the
    measured count below, so the two are directly comparable:
    ``lo <= switching_energy_j(measured) <= hi``.
    """
    if events < 0:
        raise ConfigurationError(f"events must be >= 0, got {events}")
    return events * tech.E_SWITCH_J


def measured_switching_events(session: "TraceSession",
                              circuit: "Circuit") -> int:
    """JJ switching events observed by a full-tap traced run.

    Sums ``jj_count x emitted pulses`` over every tapped output port;
    with a full-coverage tap set this is the measured counterpart of the
    analyzer's static ``[lo, hi]`` envelope.
    """
    jj_by_name = {element.name: element.jj_count
                  for element in circuit.elements}
    return sum(
        jj_by_name.get(tap.cell, 0) * tap.total for tap in session.ports
    )


# -- Fig 21: bipolar multiplier active power vs operands -------------------------
def bipolar_multiplier_activity(rl_bipolar: float, stream_bipolar: float) -> float:
    """Fraction of the epoch's slots that propagate a pulse to the output.

    ``rho = p_A * b + (1 - p_A) * (1 - b)`` in unipolar terms: the top NDRO
    passes A's pulses before the RL operand arrives, the bottom passes the
    complement after.  For a stream encoding 0 (half rate) rho is constant
    at 0.5 — the flat Fig 21 line.

    Note on sign convention: we use ``Id_b = 2 Id_u - 1`` (later pulse =
    larger value), so the +1-stream line *rises* with the RL operand and
    the -1-stream line falls — mirrored relative to Fig 21's labelling,
    which uses the opposite RL bipolar orientation (see EXPERIMENTS.md).
    """
    for value in (rl_bipolar, stream_bipolar):
        if not -1.0 <= value <= 1.0:
            raise ConfigurationError(f"bipolar values must be in [-1, 1], got {value}")
    b = (rl_bipolar + 1.0) / 2.0
    p_a = (stream_bipolar + 1.0) / 2.0
    return p_a * b + (1.0 - p_a) * (1.0 - b)


def bipolar_multiplier_active_w(rl_bipolar: float, stream_bipolar: float) -> float:
    """Active power interpolating the paper's 68-135 nW envelope."""
    rho = bipolar_multiplier_activity(rl_bipolar, stream_bipolar)
    span = tech.P_MULT_ACTIVE_MAX_W - tech.P_MULT_ACTIVE_MIN_W
    return tech.P_MULT_ACTIVE_MIN_W + span * rho


@dataclass(frozen=True)
class PowerReport:
    """Active/passive breakdown for one block (a Table 3 row)."""

    component: str
    active_w: float
    passive_w: float

    @property
    def total_w(self) -> float:
        return self.active_w + self.passive_w


def table3_rows(
    length: int = 32,
    activity: float = 0.5,
    *,
    multiplier_activity: float = None,
    balancer_activity: float = None,
):
    """The three Table 3 rows for a DPU of the given length.

    Per-component activity overrides behave as in :func:`dpu_active_w`.
    """
    mult_act = activity if multiplier_activity is None else multiplier_activity
    bal_act = activity if balancer_activity is None else balancer_activity
    return (
        PowerReport("multiplier", multiplier_active_w(mult_act), MULTIPLIER_PASSIVE_W),
        PowerReport("balancer", balancer_active_w(bal_act), BALANCER_PASSIVE_W),
        PowerReport(
            f"dpu-{length} w/o cooling",
            dpu_active_w(
                length,
                activity,
                multiplier_activity=multiplier_activity,
                balancer_activity=balancer_activity,
            ),
            dpu_passive_w(length),
        ),
    )
