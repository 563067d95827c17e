"""Fig 14: processing-element latency and iso-throughput area.

(a) Individual-PE latency: binary wins, increasingly so at high
resolution.  (b) Equalise throughput by replicating the 126-JJ unary PE
and compare total area: the unary array saves 93-96 % below 12 bits,
shrinking to tens of percent at 16 bits, and ~28 % against the 48 GHz
bit-parallel design [37, 38] at 8 bits.
"""

from __future__ import annotations

from repro.core.pe import PE_JJ
from repro.experiments.report import ExperimentResult
from repro.models import area, latency
from repro.units import to_ns

BITS_SWEEP = (4, 6, 8, 10, 12, 14, 16)


def run() -> ExperimentResult:
    result = ExperimentResult(
        "fig14",
        "PE latency and iso-throughput area",
        [
            "bits",
            "unary lat (ns)",
            "binary lat (ns)",
            "unary PEs",
            "unary array JJs",
            "binary JJs",
            "savings %",
        ],
    )
    savings_by_bits = {}
    for bits in BITS_SWEEP:
        # Latency, the iso-throughput unary array, and its area savings.
        n_pes = latency.pes_for_equal_throughput(bits)
        unary_area = area.pe_array_unary_jj(n_pes)
        binary_area = area.pe_binary_jj(bits)
        savings = (1.0 - unary_area / binary_area) * 100.0
        savings_by_bits[bits] = savings
        result.add_row(
            bits,
            to_ns(latency.pe_unary_latency_fs(bits)),
            to_ns(latency.pe_binary_latency_fs(bits)),
            n_pes,
            unary_area,
            round(binary_area),
            round(savings, 1),
        )

    result.add_claim(
        "single U-SFQ PE area", "126 JJs, bit-independent", f"{PE_JJ} JJs",
        PE_JJ == 126,
    )
    pe_savings_8 = (1.0 - PE_JJ / area.pe_binary_jj(8)) * 100.0
    result.add_claim(
        "PE area savings vs 8-bit binary PE (9k-17k JJs)",
        "98-99 %",
        f"{pe_savings_8:.1f} %",
        97.5 <= pe_savings_8 <= 99.5,
    )
    low_bits = [savings_by_bits[b] for b in BITS_SWEEP if b < 12]
    result.add_claim(
        "iso-throughput savings vs WP binary below 12 bits",
        "93-96 %",
        f"{min(low_bits):.0f}-{max(low_bits):.0f} %",
        min(low_bits) >= 85,
    )
    result.add_claim(
        "savings shrink at 16 bits",
        "~30 %",
        f"{savings_by_bits[16]:.0f} %",
        0 < savings_by_bits[16] < 50,
    )

    n_bp = latency.pes_for_bp_throughput(8)
    bp_area = area.pe_binary_bp_jj(8)
    bp_savings = (1.0 - area.pe_array_unary_jj(n_bp) / bp_area) * 100.0
    result.add_claim(
        "savings vs the 48 GHz bit-parallel PE at 8 bits",
        "28 %",
        f"{bp_savings:.0f} % ({n_bp} PEs)",
        5 <= bp_savings <= 40,
    )
    result.notes.append(
        "unary PE cycles at t_BFF = 12 ps; one MAC per 2^B cycles"
    )
    return result
