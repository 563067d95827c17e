"""Public linting entry points: configuration, circuits, and blocks.

Typical usage::

    from repro.lint import LintConfig, lint_block
    from repro.core.multiplier import build_unipolar_multiplier
    from repro.pulsesim import Circuit

    circuit = Circuit("mul")
    block = build_unipolar_multiplier(circuit, "mul")
    report = lint_block(block)
    assert report.ok, report.format_text()
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, Optional

from repro.encoding.epoch import EpochSpec
from repro.errors import ConfigurationError
from repro.lint.graph import CircuitGraph, Endpoint
from repro.lint.report import Report
from repro.lint.rules import RULES, LintContext, rule_catalogue
from repro.pulsesim.block import Block
from repro.pulsesim.netlist import Circuit


@dataclass(frozen=True)
class LintConfig:
    """Options steering one lint run.

    Attributes:
        suppress: Rule names whose diagnostics are dropped (they are still
            counted in :attr:`Report.suppressed`).
        epoch: Epoch geometry the ``epoch-overflow`` rule proves
            emission windows against; ``None`` skips that rule.
        expected_jj: Analytical JJ figure for the ``jj-budget`` cross-check;
            ``None`` skips it.
        jj_tolerance: Relative divergence accepted as calibration noise.
    """

    suppress: FrozenSet[str] = frozenset()
    epoch: Optional[EpochSpec] = None
    expected_jj: Optional[int] = None
    jj_tolerance: float = 0.15

    def __post_init__(self):
        unknown = set(self.suppress) - set(RULES)
        if unknown:
            known = ", ".join(sorted(RULES))
            raise ConfigurationError(
                f"cannot suppress unknown rule(s) {sorted(unknown)}; known: {known}"
            )
        if not 0 <= self.jj_tolerance < 1:
            raise ConfigurationError(
                f"jj_tolerance must be in [0, 1), got {self.jj_tolerance}"
            )

    def suppressing(self, *rules: str) -> "LintConfig":
        """A copy with additional rules suppressed."""
        return replace(self, suppress=self.suppress | frozenset(rules))


def lint_circuit(
    circuit: Circuit,
    entry_points: Iterable[Endpoint] = (),
    observed_outputs: Iterable[Endpoint] = (),
    config: Optional[LintConfig] = None,
    actual_jj: Optional[int] = None,
    target: Optional[str] = None,
) -> Report:
    """Run every registered rule over one circuit and return the report.

    Args:
        circuit: The netlist to analyse.
        entry_points: ``(element, input_port)`` pairs driven externally.
        observed_outputs: ``(element, output_port)`` pairs read externally
            (probed ports are always treated as observed).
        config: Rule options; defaults to :class:`LintConfig`'s defaults.
        actual_jj: Override the JJ total for the budget cross-check (e.g.
            to include functional-model memory outside the netlist).
        target: Report label; defaults to the circuit name.
    """
    config = config or LintConfig()
    entries = list(entry_points)
    graph = CircuitGraph(circuit, entries, observed_outputs)
    ctx = LintContext(
        circuit=circuit,
        graph=graph,
        epoch=config.epoch,
        expected_jj=config.expected_jj,
        jj_tolerance=config.jj_tolerance,
        actual_jj=actual_jj,
        entry_points=entries,
    )
    report = Report(target=target or circuit.name)
    for info in rule_catalogue():
        diagnostics = info.check(ctx)
        if info.name in config.suppress:
            report.suppressed.extend(diagnostics)
        else:
            report.extend(diagnostics)
    return report


def lint_block(
    block: Block,
    config: Optional[LintConfig] = None,
    extra_entry_points: Iterable[Endpoint] = (),
    extra_observed: Iterable[Endpoint] = (),
) -> Report:
    """Lint the circuit owning ``block``, seeded from its exposed ports.

    The block's exposed inputs become the stimulus entry points and its
    exposed outputs the observed outputs, which is exactly how the
    structural builders intend their blocks to be driven.
    """
    entry_points = [block.input(alias) for alias in block.input_aliases]
    entry_points.extend(extra_entry_points)
    observed = [block.output(alias) for alias in block.output_aliases]
    observed.extend(extra_observed)
    return lint_circuit(
        block.circuit,
        entry_points=entry_points,
        observed_outputs=observed,
        config=config,
        actual_jj=block.jj_count if block.elements else None,
        target=f"{block.circuit.name}:{block.name}",
    )
