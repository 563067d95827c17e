"""Fig 18: the full FIR comparison — latency, throughput, area, efficiency.

Unary FIR latency is PNM-bound (2^B * B * t_TFF2) and independent of the
tap count; the binary single-MAC FIR pays one fitted MAC per tap.
Headline claims: latency/throughput advantage below 9 bits at 32 taps and
below 12 bits at 256 taps; area savings from 9 bits at 32 taps and never
at 256 taps; efficiency advantage below ~12 bits, growing with taps.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.models import area, efficiency, latency
from repro.units import to_us

TAPS = (32, 256)
BITS_SWEEP = (4, 6, 8, 10, 12, 14, 16)


def run() -> ExperimentResult:
    result = ExperimentResult(
        "fig18",
        "FIR: latency, throughput, area, efficiency (unary vs WP binary)",
        [
            "taps",
            "bits",
            "U lat (us)",
            "B lat (us)",
            "U thr (GOPs)",
            "B thr (GOPs)",
            "U JJs",
            "B JJs",
            "U eff (kOPs/JJ)",
            "B eff (kOPs/JJ)",
        ],
    )
    for taps in TAPS:
        for bits in BITS_SWEEP:
            u_lat = latency.fir_unary_latency_fs(bits)
            b_lat = latency.fir_binary_latency_fs(taps, bits)
            result.add_row(
                taps,
                bits,
                to_us(u_lat),
                to_us(b_lat),
                latency.throughput_gops(u_lat),
                latency.throughput_gops(b_lat),
                area.fir_unary_jj(taps, bits),
                round(area.fir_binary_jj(taps, bits)),
                efficiency.fir_unary_efficiency(taps, bits),
                efficiency.fir_binary_efficiency(taps, bits),
            )

    def latency_crossover(taps: int):
        for bits in range(4, 17):
            if latency.fir_unary_latency_fs(bits) >= latency.fir_binary_latency_fs(taps, bits):
                return bits
        return None

    cross_32 = latency_crossover(32)
    cross_256 = latency_crossover(256)
    result.add_claim(
        "latency advantage below (32 taps)", "9 bits", f"{cross_32} bits",
        cross_32 == 9,
    )
    result.add_claim(
        "latency advantage below (256 taps)", "12 bits", f"{cross_256} bits",
        cross_256 == 12,
    )

    area_from_32 = next(
        (b for b in range(4, 17) if area.fir_unary_jj(32, b) < area.fir_binary_jj(32, b)),
        None,
    )
    result.add_claim(
        "area savings from (32 taps)", "9 bits", f"{area_from_32} bits",
        area_from_32 in (8, 9, 10),
    )
    never_256 = all(
        area.fir_unary_jj(256, b) >= area.fir_binary_jj(256, b) for b in range(4, 17)
    )
    result.add_claim(
        "256-tap unary always needs more area", "yes",
        "yes" if never_256 else "no", never_256,
    )

    # Bit-parallel comparison: the 48 GHz pipeline issues one MAC per
    # cycle, so its FIR latency is taps * ~20.8 ps.
    bp_beats_unary_32 = all(
        latency.fir_binary_bp_latency_fs(32) < latency.fir_unary_latency_fs(b)
        for b in range(4, 17)
    )
    unary_beats_bp_256 = any(
        latency.fir_unary_latency_fs(b) < latency.fir_binary_bp_latency_fs(256)
        for b in range(4, 17)
    )
    result.add_claim(
        "unary beats the BP binary FIR at 256 taps but not at 32",
        "yes (U-SFQ performance is set by the memory elements)",
        f"32 taps: {'BP wins' if bp_beats_unary_32 else 'unary wins'}; "
        f"256 taps: {'unary wins at low bits' if unary_beats_bp_256 else 'BP wins'}",
        bp_beats_unary_32 and unary_beats_bp_256,
    )

    def efficiency_limit(taps: int):
        """Highest bit count at which the unary FIR is still more efficient."""
        best = None
        for b in range(4, 17):
            if efficiency.fir_unary_efficiency(taps, b) > efficiency.fir_binary_efficiency(taps, b):
                best = b
        return best

    limit_32, limit_256 = efficiency_limit(32), efficiency_limit(256)
    result.add_claim(
        "efficiency advantage up to ~12 bits (taps-dependent)",
        "< 12 bits",
        f"up to {limit_32} bits @32 taps, {limit_256} bits @256 taps",
        limit_32 is not None and limit_256 is not None and 8 <= limit_256 <= 13,
    )
    gain_32 = efficiency.fir_unary_efficiency(32, 8) / efficiency.fir_binary_efficiency(32, 8)
    gain_256 = efficiency.fir_unary_efficiency(256, 8) / efficiency.fir_binary_efficiency(256, 8)
    result.add_claim(
        "efficiency gain grows with taps (8 bits)",
        "yes",
        f"{gain_32:.1f}x @32 -> {gain_256:.1f}x @256",
        gain_256 > gain_32,
    )
    result.notes.append(
        "unary latency = 2^B * B * t_TFF2 (20 ps): tap-independent; "
        "binary latency = taps * (fitted multiplier + adder)"
    )
    return result
