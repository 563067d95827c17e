"""Abstract-interpretation pulse-flow analysis for U-SFQ netlists.

Where :mod:`repro.pulsesim` observes one concrete execution, this package
computes *guaranteed bounds* over every execution compatible with a
stimulus specification: per (element, port) pulse-count intervals
``[n_lo, n_hi]``, arrival-time windows ``[t_min, t_max]``, and minimum
inter-pulse spacing, propagated through the full cell library by sound
per-cell transfer functions with widening on feedback loops.

On top of the fixpoint sit derived static checks: epoch-overflow and
merger-collision proofs with per-path witness chains, dead-path
detection, a static peak-queue-depth bound for the event kernel, and a
switching-energy envelope bracketing measured-activity numbers.  The
linter's ``epoch-overflow`` and ``merger-collision`` rules report these
findings.

Quickstart::

    from repro.analyze import AnalyzeConfig, analyze_circuit
    analysis = analyze_circuit(
        circuit, entry_points=[(src, "a")],
        config=AnalyzeConfig(epoch=EpochSpec(bits=8, slot_fs=5_000)))
    assert analysis.report.ok, analysis.report.format_text()

CLI: ``python -m repro.analyze --all-blocks`` or the ``usfq-analyze``
script.  The soundness contract (simulation never escapes the static
bounds) is fuzzed continuously by the ``static-soundness`` oracle in
:mod:`repro.verify`.
"""

from repro.analyze.api import AnalyzeConfig, Analysis, analyze_circuit
from repro.analyze.domain import INF, NONE, PulseBounds, stimulus_bounds
from repro.analyze.report import AnalysisReport, Finding

__all__ = [
    "Analysis",
    "AnalysisReport",
    "AnalyzeConfig",
    "Finding",
    "INF",
    "NONE",
    "PulseBounds",
    "analyze_circuit",
    "stimulus_bounds",
]
