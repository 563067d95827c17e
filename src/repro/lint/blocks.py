"""Registry of the shipped structural blocks, pre-wired for analysis.

Every netlist builder the library ships is represented here with the
entry points it is designed to be driven through, the epoch geometry its
datapath clocks at (t_INV for multipliers, t_BFF for balancer adders,
t_TFF2 for PNM-fed paths — paper section 4), and the analytical JJ figure
from :mod:`repro.models` it must stay calibrated against.  The CLI's
``--all-blocks`` sweep, the ``lint`` experiment, the abstract
interpreter (:mod:`repro.analyze.blocks`), and the regression tests all
iterate this one registry, so a new structural builder becomes lint *and*
static-analysis coverage by adding one entry.

Construction and consumption are split: each entry's builder returns a
:class:`BuiltBlock` — the instantiated circuit plus the endpoints and
policy any analysis needs — and the linter (or analyzer) consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.encoding.epoch import EpochSpec
from repro.errors import ConfigurationError
from repro.lint.api import LintConfig, lint_circuit
from repro.lint.graph import Endpoint
from repro.lint.report import Report
from repro.models import technology as tech
from repro.pulsesim.block import Block
from repro.pulsesim.netlist import Circuit


@dataclass
class BuiltBlock:
    """One instantiated shipped block, ready for lint or static analysis."""

    target: str
    circuit: Circuit
    entry_points: List[Endpoint]
    observed_outputs: List[Endpoint]
    config: LintConfig
    actual_jj: Optional[int] = None

    def lint(self) -> Report:
        return lint_circuit(
            self.circuit,
            entry_points=self.entry_points,
            observed_outputs=self.observed_outputs,
            config=self.config,
            actual_jj=self.actual_jj,
            target=self.target,
        )


def _from_block(block: Block, config: LintConfig) -> BuiltBlock:
    """Seed a :class:`BuiltBlock` from a Block's exposed ports.

    The block's exposed inputs become the stimulus entry points and its
    exposed outputs the observed outputs, which is exactly how the
    structural builders intend their blocks to be driven (mirrors
    :func:`repro.lint.api.lint_block`).
    """
    return BuiltBlock(
        target=f"{block.circuit.name}:{block.name}",
        circuit=block.circuit,
        entry_points=[block.input(alias) for alias in block.input_aliases],
        observed_outputs=[
            block.output(alias) for alias in block.output_aliases
        ],
        config=config,
        actual_jj=block.jj_count if block.elements else None,
    )


@dataclass(frozen=True)
class ShippedBlock:
    """One registry entry: name, description, and the netlist builder."""

    name: str
    description: str
    build: Callable[[], BuiltBlock] = field(compare=False)

    def run(self) -> Report:
        """Build and lint (the historical one-shot entry point)."""
        return self.build().lint()


def _build_unipolar_multiplier() -> BuiltBlock:
    from repro.core.multiplier import MULTIPLIER_UNIPOLAR_JJ, build_unipolar_multiplier

    circuit = Circuit("multiplier_unipolar")
    block = build_unipolar_multiplier(circuit, "mul")
    config = LintConfig(
        epoch=EpochSpec(bits=8, slot_fs=tech.T_INV_FS),
        expected_jj=MULTIPLIER_UNIPOLAR_JJ,
    )
    return _from_block(block, config)


def _build_bipolar_multiplier() -> BuiltBlock:
    from repro.core.multiplier import MULTIPLIER_BIPOLAR_JJ, build_bipolar_multiplier

    circuit = Circuit("multiplier_bipolar")
    block = build_bipolar_multiplier(circuit, "mul")
    config = LintConfig(
        epoch=EpochSpec(bits=8, slot_fs=tech.T_INV_FS),
        expected_jj=MULTIPLIER_BIPOLAR_JJ,
    )
    return _from_block(block, config)


def _build_balancer() -> BuiltBlock:
    from repro.core.balancer import BALANCER_JJ, build_structural_balancer

    circuit = Circuit("balancer")
    block = build_structural_balancer(circuit, "bal")
    config = LintConfig(
        epoch=EpochSpec(bits=8, slot_fs=tech.T_BFF_FS),
        expected_jj=BALANCER_JJ,
    )
    return _from_block(block, config)


def _build_merger_adder() -> BuiltBlock:
    from repro.core.adder import build_merger_tree, merger_tree_jj

    circuit = Circuit("merger_adder")
    block = build_merger_tree(circuit, "add", m_inputs=4)
    config = LintConfig(
        epoch=EpochSpec(bits=8, slot_fs=tech.T_BFF_FS),
        expected_jj=merger_tree_jj(4),
        # The M:1 merger tree is the paper's collision-prone adder (Fig 5):
        # equal-length lanes collide by construction and the cure is the
        # staggered-offset schedule, not a netlist change.
        suppress=frozenset({"merger-collision"}),
    )
    return _from_block(block, config)


def _build_counting_network() -> BuiltBlock:
    from repro.core.counting import build_counting_network, counting_network_jj

    circuit = Circuit("counting_network")
    block = build_counting_network(circuit, "cn", m_inputs=4)
    config = LintConfig(
        epoch=EpochSpec(bits=8, slot_fs=tech.T_BFF_FS),
        expected_jj=counting_network_jj(4),
    )
    return _from_block(block, config)


def _build_pnm() -> BuiltBlock:
    from repro.core.pnm import build_tff2_pnm, pnm_jj

    bits = 4
    circuit = Circuit("pnm")
    block = build_tff2_pnm(circuit, "pnm", bits=bits)
    config = LintConfig(
        epoch=EpochSpec(bits=bits, slot_fs=tech.T_TFF2_FS),
        expected_jj=pnm_jj(bits),
    )
    return _from_block(block, config)


def _build_dpu() -> BuiltBlock:
    from repro.core.dpu import build_dpu, dpu_compute_jj

    length = 4
    circuit = Circuit("dpu")
    block = build_dpu(circuit, "dpu", length=length)
    config = LintConfig(
        epoch=EpochSpec(bits=8, slot_fs=tech.T_BFF_FS),
        expected_jj=dpu_compute_jj(length),
    )
    return _from_block(block, config)


def _unipolar_pe_jj() -> int:
    """Analytical figure for the *unipolar* PE netlist we actually build.

    The paper's 126-JJ anchor assumes the bipolar multiplier; the shipped
    netlist uses the 16-JJ unipolar variant, so the model figure swaps
    multipliers accordingly.
    """
    from repro.core.balancer import BALANCER_JJ
    from repro.core.buffer import INTEGRATOR_STAGE_JJ
    from repro.core.multiplier import MULTIPLIER_UNIPOLAR_JJ

    return MULTIPLIER_UNIPOLAR_JJ + BALANCER_JJ + INTEGRATOR_STAGE_JJ


def _build_pe() -> BuiltBlock:
    from repro.core.pe import build_processing_element

    epoch = EpochSpec(bits=8, slot_fs=tech.T_BFF_FS)
    circuit = Circuit("processing_element")
    block = build_processing_element(circuit, "pe", epoch)
    config = LintConfig(epoch=epoch, expected_jj=_unipolar_pe_jj())
    return _from_block(block, config)


def _structural_fir_jj(taps: int, bits: int) -> int:
    """Analytical area of the structural FIR, piece by piece.

    Per-tap unipolar multipliers + the counting network + the memory-cell
    delay line with its fanout splitters + the head splitter + the
    NDRO coefficient bank (a functional model, but its JJs are real).
    """
    from repro.core.buffer import MEMORY_CELL_JJ
    from repro.core.counting import counting_network_jj
    from repro.core.membank import membank_jj
    from repro.core.multiplier import MULTIPLIER_UNIPOLAR_JJ

    datapath = taps * MULTIPLIER_UNIPOLAR_JJ + counting_network_jj(taps)
    delay_line = (taps - 1) * (MEMORY_CELL_JJ + tech.JJ_SPLITTER)
    return datapath + delay_line + tech.JJ_SPLITTER + membank_jj(taps, bits)


def _build_structural_fir() -> BuiltBlock:
    from repro.core.fir_structural import StructuralUnaryFir

    epoch = EpochSpec(bits=4, slot_fs=tech.T_TFF2_FS)
    fir = StructuralUnaryFir(epoch, coefficient_words=[3, 5, 7, 9])
    entry_points: List[Endpoint] = [(fir._head, "a")]
    for mult in fir.multipliers:
        entry_points.append(mult.input("a"))
        entry_points.append(mult.input("epoch"))
    observed = [fir.network.output("y"), fir.network.output("y_alt")]
    config = LintConfig(
        epoch=epoch, expected_jj=_structural_fir_jj(fir.taps, epoch.bits)
    )
    return BuiltBlock(
        target="structural_fir",
        circuit=fir.circuit,
        entry_points=entry_points,
        observed_outputs=observed,
        config=config,
        actual_jj=fir.jj_count,
    )


def _build_cgra_fabric() -> BuiltBlock:
    """A 2x2 grid of PEs (Fig 13b), each checked on its own pins.

    Inter-PE traffic rides buffered Race-Logic links outside the netlist,
    so the fabric is the PEs side by side.
    """
    from repro.core.pe import PE_JJ, build_processing_element

    rows = cols = 2
    epoch = EpochSpec(bits=6, slot_fs=tech.T_BFF_FS)
    circuit = Circuit("cgra_fabric")
    entry_points: List[Endpoint] = []
    observed: List[Endpoint] = []
    for row in range(rows):
        for col in range(cols):
            pe = build_processing_element(circuit, f"pe_r{row}c{col}", epoch)
            entry_points.extend(pe.input(alias) for alias in pe.input_aliases)
            observed.extend(pe.output(alias) for alias in pe.output_aliases)
    n_pes = rows * cols
    config = LintConfig(epoch=epoch, expected_jj=n_pes * _unipolar_pe_jj())
    return BuiltBlock(
        target=(
            f"{rows}x{cols} U-SFQ fabric, {epoch.bits}-bit epochs "
            f"({epoch.n_max} slots @ {1e6 / epoch.slot_fs:.0f} GHz pulse "
            f"rate), {n_pes * PE_JJ:,} JJs of PEs"
        ),
        circuit=circuit,
        entry_points=entry_points,
        observed_outputs=observed,
        config=config,
    )


SHIPPED_BLOCKS: Dict[str, ShippedBlock] = {
    block.name: block
    for block in (
        ShippedBlock(
            "multiplier-unipolar",
            "one-NDRO unipolar multiplier (Fig 3c left)",
            _build_unipolar_multiplier,
        ),
        ShippedBlock(
            "multiplier-bipolar",
            "two-NDRO + inverter bipolar multiplier (Fig 3c right)",
            _build_bipolar_multiplier,
        ),
        ShippedBlock(
            "balancer",
            "BFF routing unit + DFF2 output stage (Fig 6)",
            _build_balancer,
        ),
        ShippedBlock(
            "adder-merger",
            "4:1 merger-tree adder (Fig 5)",
            _build_merger_adder,
        ),
        ShippedBlock(
            "counting-network",
            "4:1 balancer counting network (Fig 8)",
            _build_counting_network,
        ),
        ShippedBlock(
            "pnm",
            "4-bit TFF2-chain pulse-number multiplier (Fig 9b)",
            _build_pnm,
        ),
        ShippedBlock(
            "dpu",
            "length-4 unipolar dot-product unit (Fig 15)",
            _build_dpu,
        ),
        ShippedBlock(
            "pe",
            "unipolar processing element (Fig 13a)",
            _build_pe,
        ),
        ShippedBlock(
            "structural-fir",
            "4-tap structural unary FIR (Fig 17)",
            _build_structural_fir,
        ),
        ShippedBlock(
            "cgra-fabric",
            "2x2 CGRA fabric of PEs (Fig 13b)",
            _build_cgra_fabric,
        ),
    )
}


def build_shipped_block(name: str) -> BuiltBlock:
    """Instantiate one registry entry's netlist + analysis policy."""
    try:
        entry = SHIPPED_BLOCKS[name]
    except KeyError:
        known = ", ".join(sorted(SHIPPED_BLOCKS))
        raise ConfigurationError(
            f"unknown block {name!r}; known blocks: {known}"
        ) from None
    return entry.build()


def lint_shipped_block(name: str) -> Report:
    """Lint one registry entry by name."""
    return build_shipped_block(name).lint()


def lint_all_blocks() -> List[Report]:
    """Lint every shipped block, in registry order."""
    return [entry.run() for entry in SHIPPED_BLOCKS.values()]
