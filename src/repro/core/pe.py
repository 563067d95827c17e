"""The U-SFQ processing element and PE arrays (paper section 5.2, Fig 13).

A PE is the multiply-accumulate workhorse of CGRAs and spatial CNN
architectures.  The unipolar U-SFQ PE chains the three proposed blocks:

* multiplier — In1 (Race Logic) x In2 (pulse stream),
* balancer adder — adds stream In3 (each balancer output carries half the
  combined count),
* pulse integrator — accumulates the adder's pulses across one or more
  epochs and reads the total out as a Race-Logic pulse, which is also the
  natural inter-PE interface.

The JJ budget is the paper's stated ``126`` (multiplier 46 + balancer 56 +
integrator stage 24) and is *independent of bit resolution* — the source
of the 98-99 % area savings vs an 8-bit binary PE.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Tuple

from repro.core.balancer import BALANCER_JJ, Balancer
from repro.core.buffer import INTEGRATOR_STAGE_JJ, PulseIntegrator
from repro.core.multiplier import (
    MULTIPLIER_BIPOLAR_JJ,
    SETUP_FS,
    build_unipolar_multiplier,
    unipolar_product_count,
)
from repro.encoding.epoch import EpochSpec
from repro.encoding.pulsestream import PulseStreamCodec
from repro.encoding.racelogic import RaceLogicCodec
from repro.errors import ConfigurationError
from repro.models import technology as tech
from repro.pulsesim.block import Block
from repro.pulsesim.netlist import Circuit
from repro.pulsesim.simulator import Simulator

if TYPE_CHECKING:
    import numpy as np

#: The paper's PE area anchor (section 5.2): "The number of JJs for the
#: U-SFQ PE is 126 and does not increase with the number of bits."
PE_JJ = MULTIPLIER_BIPOLAR_JJ + BALANCER_JJ + INTEGRATOR_STAGE_JJ
assert PE_JJ == 126, "PE JJ calibration drifted from the paper's anchor"


def build_processing_element(circuit: Circuit, name: str, epoch: EpochSpec) -> Block:
    """Assemble the unipolar PE netlist (Fig 13a).

    Exposed ports: inputs ``in1`` (RL), ``in2`` (stream), ``in3`` (stream),
    ``epoch_start`` (arms the multiplier), ``epoch_end`` (reads the
    integrator); output ``out`` (RL).
    """
    block = Block(circuit, name)
    multiplier = build_unipolar_multiplier(circuit, f"{name}.mul")
    block.elements.extend(multiplier.elements)
    adder = block.add(Balancer(block.subname("bal")))
    integrator = block.add(
        PulseIntegrator(block.subname("acc"), epoch.slot_fs, epoch.n_max)
    )

    multiplier.connect_output_to_element("out", adder, "a")
    circuit.connect(adder, "y1", integrator, "a")

    mul_a = multiplier.input("a")
    mul_b = multiplier.input("b")
    mul_epoch = multiplier.input("epoch")
    block.expose_input("in2", mul_a[0], mul_a[1])
    block.expose_input("in1", mul_b[0], mul_b[1])
    block.expose_input("epoch_start", mul_epoch[0], mul_epoch[1])
    block.expose_input("in3", adder, "b")
    block.expose_input("epoch_end", integrator, "epoch")
    block.expose_output("out", integrator, "out")
    return block


class ProcessingElement:
    """Self-contained structural PE with encode/run/decode helpers."""

    jj_count = PE_JJ

    def __init__(self, epoch: EpochSpec):
        self.epoch = epoch
        self.streams = PulseStreamCodec(epoch)
        self.race = RaceLogicCodec(epoch)
        self.circuit = Circuit("processing_element")
        self.block = build_processing_element(self.circuit, "pe", epoch)
        self.output = self.block.probe_output("out")
        self.circuit.seal()

    def run_mac(self, slot_in1: int, count_in2: int, count_in3: int) -> int:
        """One epoch of (In1 x In2 + In3) / 2; returns the output RL slot."""
        n_max = self.epoch.n_max
        sim = Simulator(self.circuit)
        sim.reset()
        self.block.drive(sim, "epoch_start", 0)
        self.block.drive(
            sim,
            "in2",
            [t + SETUP_FS for t in self.streams.times_for_count(count_in2)],
        )
        if slot_in1 < n_max:
            self.block.drive(sim, "in1", SETUP_FS + self.epoch.slot_time(slot_in1))
        # In3 is offset by the multiplier NDRO's read delay so that, slot by
        # slot, product pulses and In3 pulses reach the balancer coincident
        # (the simultaneous-pair case it is designed to absorb).
        self.block.drive(
            sim,
            "in3",
            [
                t + SETUP_FS + tech.T_NDRO_FS
                for t in self.streams.times_for_count(count_in3)
            ],
        )
        self.block.drive(sim, "epoch_end", SETUP_FS + self.epoch.duration_fs)
        sim.run()
        times = self.output.times
        if not times:
            return 0
        read_time = SETUP_FS + self.epoch.duration_fs
        return (times[-1] - read_time) // self.epoch.slot_fs

    def mac(self, in1: float, in2: float, in3: float) -> float:
        """Unipolar (in1 * in2 + in3) / 2 with U-SFQ quantisation."""
        slot = self.race.slot_for_unipolar(in1)
        n2 = self.streams.count_for_unipolar(in2)
        n3 = self.streams.count_for_unipolar(in3)
        return self.run_mac(slot, n2, n3) / self.epoch.n_max


class PEModel:
    """Functional PE with the same quantisation semantics as the netlist."""

    jj_count = PE_JJ

    def __init__(self, epoch: EpochSpec):
        self.epoch = epoch
        self.streams = PulseStreamCodec(epoch)
        self.race = RaceLogicCodec(epoch)

    def mac_counts(self, slot_in1: int, count_in2: int, count_in3: int) -> int:
        """Output slot for one epoch of (In1 x In2 + In3) / 2."""
        n_max = self.epoch.n_max
        product = unipolar_product_count(count_in2, slot_in1, n_max)
        half_sum = (product + count_in3 + 1) // 2  # balancer Y1 takes the ceil
        return min(half_sum, n_max)

    def mac(self, in1: float, in2: float, in3: float) -> float:
        slot = self.race.slot_for_unipolar(in1)
        n2 = self.streams.count_for_unipolar(in2)
        n3 = self.streams.count_for_unipolar(in3)
        return self.mac_counts(slot, n2, n3) / self.epoch.n_max

    def accumulate(self, pairs: Sequence[Tuple[float, float]]) -> float:
        """Temporal MAC: integrate (a_t * b_t) / 2 over several epochs.

        The integrator keeps accumulating until read, saturating at
        ``n_max`` — the PE's multi-epoch dot-product mode.
        """
        n_max = self.epoch.n_max
        total = 0
        for a_value, b_value in pairs:
            slot = self.race.slot_for_unipolar(a_value)
            count = self.streams.count_for_unipolar(b_value)
            product = unipolar_product_count(count, slot, n_max)
            total += (product + 1) // 2
        return min(total, n_max) / n_max


class PEArray:
    """A grid of functional PEs (Fig 13b) with a weight-stationary mapping.

    Each PE accumulates one output element over time; :meth:`matmul` and
    :meth:`conv2d` map the classic CNN kernels onto the array, reporting
    the array's JJ budget for area studies.  Values are unipolar ([0, 1]);
    the caller handles scaling (each accumulated product is halved by the
    balancer, compensated in the decode).
    """

    def __init__(self, epoch: EpochSpec, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ConfigurationError(f"array must be >= 1x1, got {rows}x{cols}")
        self.epoch = epoch
        self.rows = rows
        self.cols = cols
        self.model = PEModel(epoch)

    @property
    def n_pes(self) -> int:
        return self.rows * self.cols

    @property
    def jj_count(self) -> int:
        return self.n_pes * PE_JJ

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Quantised unipolar matrix product with PE-temporal accumulation.

        ``a`` is (M, K), ``b`` is (K, N); entries must lie in [0, 1].  Each
        output element is produced by one PE accumulating K halved products
        (results are scaled back by 2 and clipped to [0, 1]).
        """
        import numpy as np

        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ConfigurationError(
                f"incompatible shapes for matmul: {a.shape} x {b.shape}"
            )
        out = np.zeros((a.shape[0], b.shape[1]))
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                pairs = [(a[i, k], b[k, j]) for k in range(a.shape[1])]
                out[i, j] = min(1.0, 2.0 * self.model.accumulate(pairs))
        return out

    def conv2d(self, image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        """Valid-mode 2-D convolution, one PE per output pixel."""
        import numpy as np

        image = np.asarray(image, dtype=float)
        kernel = np.asarray(kernel, dtype=float)
        if image.ndim != 2 or kernel.ndim != 2:
            raise ConfigurationError("conv2d expects 2-D image and kernel")
        kh, kw = kernel.shape
        oh, ow = image.shape[0] - kh + 1, image.shape[1] - kw + 1
        if oh < 1 or ow < 1:
            raise ConfigurationError("kernel larger than image")
        out = np.zeros((oh, ow))
        for i in range(oh):
            for j in range(ow):
                pairs = [
                    (image[i + di, j + dj], kernel[di, dj])
                    for di in range(kh)
                    for dj in range(kw)
                ]
                out[i, j] = min(1.0, 2.0 * self.model.accumulate(pairs))
        return out


__all__ = [
    "PEArray",
    "PEModel",
    "PE_JJ",
    "ProcessingElement",
    "build_processing_element",
]
