"""Fig 16: dot-product-unit area.

Unary DPU area is bit-independent and linear in the vector length L
(L multipliers + an (L-1)-balancer counting network); the binary DPU is a
single fitted MAC whose area grows with bits.  Headline claims: unary wins
for L < 64 at any resolution; at L = 128 the two are comparable (unary
wins at high resolution); beyond 256 the binary MAC wins.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.models import area

LENGTHS = (16, 32, 64, 128, 256)
BITS_SWEEP = (6, 8, 10, 12, 14, 16)


def run() -> ExperimentResult:
    result = ExperimentResult(
        "fig16",
        "DPU area: unary (per L) vs binary (per bits)",
        ["config", "JJs"] + [f"saves @{b}b" for b in BITS_SWEEP],
    )
    for length in LENGTHS:
        unary = area.dpu_unary_jj(length)
        saves = [
            "yes" if unary < area.dpu_binary_jj(bits) else "no"
            for bits in BITS_SWEEP
        ]
        result.add_row(f"unary L={length}", unary, *saves)
    result.add_row(
        "binary MAC", "-",
        *[round(area.dpu_binary_jj(bits)) for bits in BITS_SWEEP],
    )

    always_64 = all(
        area.dpu_unary_jj(64) < area.dpu_binary_jj(bits) for bits in BITS_SWEEP
    )
    result.add_claim(
        "unary saves area for L <= 64 at any resolution",
        "yes", "yes" if always_64 else "no", always_64,
    )
    crossover_128 = next(
        (b for b in BITS_SWEEP if area.dpu_unary_jj(128) < area.dpu_binary_jj(b)),
        None,
    )
    result.add_claim(
        "L = 128 comparable; unary wins at high resolution",
        "> 12 bits",
        f"> {crossover_128 - 2 if crossover_128 else '-'} bits",
        crossover_128 is not None and crossover_128 >= 8,
    )
    never_256 = all(
        area.dpu_unary_jj(256) > area.dpu_binary_jj(bits) for bits in BITS_SWEEP
    )
    result.add_claim(
        "beyond 256 taps the binary MAC is smaller",
        "yes", "yes" if never_256 else "no", never_256,
    )
    result.notes.append(
        "unary DPU JJs = 46 L + 56 (L - 1): bit-independent (the Fig 16 flat lines)"
    )
    return result
