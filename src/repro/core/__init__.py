"""U-SFQ building blocks and accelerators (paper sections 4 and 5).

Structural netlist builders (running on :mod:`repro.pulsesim`) live next to
fast *functional* models with identical quantisation semantics; tests
cross-validate the two.  The accelerators compose the blocks:

* :mod:`repro.core.pe` — processing element for CGRAs/spatial arrays,
* :mod:`repro.core.dpu` — dot-product unit,
* :mod:`repro.core.fir` — programmable FIR filter accelerator.

Each re-exported name imports its module on first use
(:mod:`repro.lazy`).
"""

from repro.lazy import exports

__getattr__, __dir__ = exports(
    __name__,
    {
        "repro.core.adder": (
            "MergerAdder",
            "merger_tree_output_count",
            "staggered_offsets",
        ),
        "repro.core.balancer": ("Balancer", "build_structural_balancer"),
        "repro.core.binary_adder": ("RippleCarryAdder",),
        "repro.core.binary_multiplier": ("ShiftAddMultiplier",),
        "repro.core.buffer": (
            "PulseIntegrator",
            "RlBuffer",
            "RlMemoryCell",
            "RlShiftRegister",
        ),
        "repro.core.counting": (
            "CountingNetwork",
            "build_counting_network",
            "counting_network_output_count",
        ),
        "repro.core.dpu": ("DotProductUnit", "DpuModel"),
        "repro.core.fir": ("BinaryFirFilter", "UnaryFirFilter"),
        "repro.core.fir_structural": ("StructuralUnaryFir",),
        "repro.core.membank": ("CoefficientBank",),
        "repro.core.multiplier": (
            "BipolarMultiplier",
            "UnipolarMultiplier",
            "bipolar_product_count",
            "build_bipolar_multiplier",
            "build_unipolar_multiplier",
            "unipolar_product_count",
        ),
        "repro.core.pe": ("PEArray", "PEModel", "ProcessingElement"),
        "repro.core.pnm": ("BurstPnm", "build_tff2_pnm", "pnm_tick_pattern"),
        "repro.core.racelogic_ops": (
            "RaceLogicAlu",
            "add_constant",
            "inhibit_slots",
            "max_slots",
            "min_slots",
        ),
    },
)

__all__ = [
    "Balancer",
    "BinaryFirFilter",
    "BipolarMultiplier",
    "BurstPnm",
    "CoefficientBank",
    "CountingNetwork",
    "DotProductUnit",
    "DpuModel",
    "MergerAdder",
    "PEArray",
    "PEModel",
    "ProcessingElement",
    "PulseIntegrator",
    "RaceLogicAlu",
    "RippleCarryAdder",
    "RlBuffer",
    "RlMemoryCell",
    "RlShiftRegister",
    "ShiftAddMultiplier",
    "StructuralUnaryFir",
    "UnaryFirFilter",
    "UnipolarMultiplier",
    "add_constant",
    "inhibit_slots",
    "max_slots",
    "min_slots",
    "bipolar_product_count",
    "build_bipolar_multiplier",
    "build_counting_network",
    "build_structural_balancer",
    "build_tff2_pnm",
    "build_unipolar_multiplier",
    "counting_network_output_count",
    "merger_tree_output_count",
    "pnm_tick_pattern",
    "staggered_offsets",
    "unipolar_product_count",
]
