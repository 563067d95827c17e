"""U-SFQ: temporal and SFQ pulse-stream encoding for superconducting accelerators.

A production-quality reproduction of Gonzalez-Guerrero et al., ASPLOS 2022.
The library spans four layers:

* ``repro.pulsesim`` + ``repro.cells`` — an event-driven SFQ pulse
  simulator and a behavioural RSFQ cell library (the spice substitute);
* ``repro.encoding`` — the Race-Logic and pulse-stream unary encodings;
* ``repro.core`` — the U-SFQ building blocks (multipliers, balancer and
  counting-network adders, PNM, memory) and the three accelerators
  (processing element, dot-product unit, FIR filter);
* ``repro.models`` / ``repro.dsp`` / ``repro.experiments`` — the
  analytical cost models, DSP workload, and the harness regenerating every
  table and figure of the paper's evaluation.

Quickstart::

    from repro import EpochSpec, UnipolarMultiplier

    epoch = EpochSpec(bits=6)
    mult = UnipolarMultiplier(epoch)
    print(mult.multiply(0.5, 0.75))  # pulse-level simulated, ~0.375

Each re-exported name imports its module on first use
(:mod:`repro.lazy`), so ``import repro`` loads nothing else.
"""

from repro.lazy import exports

__getattr__, __dir__ = exports(
    __name__,
    {
        "repro.core.adder": ("MergerAdder",),
        "repro.core.balancer": ("Balancer",),
        "repro.core.buffer": ("RlMemoryCell", "RlShiftRegister"),
        "repro.core.counting": ("CountingNetwork",),
        "repro.core.dpu": ("DotProductUnit", "DpuModel"),
        "repro.core.fir": ("BinaryFirFilter", "UnaryFirFilter"),
        "repro.core.membank": ("CoefficientBank",),
        "repro.core.multiplier": ("BipolarMultiplier", "UnipolarMultiplier"),
        "repro.core.pe": ("PEArray", "PEModel", "ProcessingElement"),
        "repro.encoding.epoch": ("EpochSpec",),
        "repro.encoding.pulsestream": ("PulseStreamCodec",),
        "repro.encoding.racelogic": ("RaceLogicCodec",),
        "repro.errors": (
            "ConfigurationError",
            "EncodingError",
            "NetlistError",
            "ReproError",
            "SimulationError",
        ),
        "repro.pulsesim.block": ("Block",),
        "repro.pulsesim.netlist": ("Circuit",),
        "repro.pulsesim.probe": ("PulseRecorder",),
        "repro.pulsesim.simulator": ("Simulator",),
    },
)

__version__ = "1.0.0"

__all__ = [
    "Balancer",
    "BinaryFirFilter",
    "BipolarMultiplier",
    "Block",
    "Circuit",
    "CoefficientBank",
    "ConfigurationError",
    "CountingNetwork",
    "DotProductUnit",
    "DpuModel",
    "EncodingError",
    "EpochSpec",
    "MergerAdder",
    "NetlistError",
    "PEArray",
    "PEModel",
    "ProcessingElement",
    "PulseRecorder",
    "PulseStreamCodec",
    "RaceLogicCodec",
    "ReproError",
    "RlMemoryCell",
    "RlShiftRegister",
    "SimulationError",
    "Simulator",
    "UnaryFirFilter",
    "UnipolarMultiplier",
    "__version__",
]
