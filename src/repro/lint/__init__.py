"""Static analysis for RSFQ netlists: DRC, timing, and JJ budgets.

The simulator in :mod:`repro.pulsesim` deliberately tolerates physically
illegal constructions (implicit fanout, wired-OR fan-in, pass-through
loops) so tests can build minimal scaffolding.  This package is the
production gate: a rule-based analyzer that enforces the paper's
structural discipline over any :class:`~repro.pulsesim.netlist.Circuit`.

Three rule categories:

* **DRC** — implicit fanout, un-merged fan-in, floating inputs, dead
  elements, dangling outputs, storage-free combinational loops, and
  undriven clock ports;
* **timing** — emission windows against the computing epoch (``2^B``
  cycles of t_INV / t_BFF / t_TFF2) and merger collision hazards, as
  judged by the pulse-flow analyzer (:mod:`repro.analyze`);
* **budget** — the structural JJ count cross-checked against the
  analytical :mod:`repro.models.area` figures.

Quickstart::

    from repro.lint import lint_block
    report = lint_block(block)          # entry points = exposed ports
    assert report.ok, report.format_text()

CLI: ``python -m repro.lint --all-blocks`` or the ``usfq-lint`` script.
"""

from repro.lint.api import LintConfig, lint_block, lint_circuit
from repro.lint.blocks import SHIPPED_BLOCKS, lint_all_blocks, lint_shipped_block
from repro.lint.graph import CircuitGraph
from repro.lint.report import Diagnostic, Report, Severity
from repro.lint.rules import RULES, rule_catalogue

__all__ = [
    "CircuitGraph",
    "Diagnostic",
    "LintConfig",
    "RULES",
    "Report",
    "SHIPPED_BLOCKS",
    "Severity",
    "lint_all_blocks",
    "lint_block",
    "lint_circuit",
    "lint_shipped_block",
    "rule_catalogue",
]
