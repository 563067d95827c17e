"""Findings and the analysis report container.

Mirrors the shape of :mod:`repro.lint.report` (severity scale, fail-on
semantics, text/JSON rendering) so CLI users see one consistent idiom,
but adds the analyzer-specific payload: per-finding *witness chains* —
the abstract pulse path that substantiates a bound — and a ``stats``
block carrying whole-circuit derived quantities (peak queue-depth bound,
switching-energy envelope, fixpoint effort).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.report import Severity


@dataclass(frozen=True)
class Finding:
    """One analyzer conclusion worth reporting."""

    check: str
    severity: Severity
    message: str
    element: Optional[str] = None
    port: Optional[str] = None
    #: Innermost-last chain of ``"cell.port  bounds"`` lines tracing the
    #: abstract pulse flow that produced the bound.
    witness: Tuple[str, ...] = ()

    @property
    def location(self) -> str:
        if self.element is None:
            return "<circuit>"
        if self.port is None:
            return self.element
        return f"{self.element}.{self.port}"

    def render(self) -> str:
        lines = [f"{self.severity.name.lower():8s} {self.check:18s} "
                 f"{self.location}: {self.message}"]
        for step in self.witness:
            lines.append(f"         | {step}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "severity": self.severity.name.lower(),
            "message": self.message,
            "element": self.element,
            "port": self.port,
            "witness": list(self.witness),
        }


@dataclass
class AnalysisReport:
    """All findings for one analysis target plus derived statistics."""

    target: str
    findings: List[Finding] = field(default_factory=list)
    #: Findings suppressed by the caller's waiver set (kept for the record).
    waived: List[Finding] = field(default_factory=list)
    #: Derived whole-circuit quantities (queue bound, energy envelope, ...).
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(f.severity >= Severity.ERROR for f in self.findings)

    def by_check(self, check: str) -> List[Finding]:
        return [f for f in self.findings if f.check == check]

    def counts(self) -> Dict[str, int]:
        tally = {"error": 0, "warning": 0, "info": 0}
        for finding in self.findings:
            tally[finding.severity.name.lower()] += 1
        return tally

    def format_text(self, verbose: bool = False) -> str:
        lines = [f"== {self.target} =="]
        for finding in self.findings:
            lines.append(finding.render())
        if verbose and self.waived:
            lines.append(f"-- waived ({len(self.waived)}) --")
            for finding in self.waived:
                lines.append(finding.render())
        if self.stats:
            lines.append("-- stats --")
            for key in sorted(self.stats):
                lines.append(f"{key}: {self.stats[key]}")
        tally = self.counts()
        lines.append(
            f"{tally['error']} error(s), {tally['warning']} warning(s), "
            f"{tally['info']} info ({len(self.waived)} waived)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "ok": self.ok,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
            "waived": [f.to_dict() for f in self.waived],
            "stats": dict(self.stats),
        }
