"""Diagnostic containers for the netlist linter.

A lint run produces a :class:`Report`: an ordered list of
:class:`Diagnostic` records, each attributed to a rule, a severity, and
(usually) an element/port location.  Reports render as plain text for the
CLI and as JSON-serialisable dictionaries for tooling.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


class Severity(enum.IntEnum):
    """Diagnostic severity; comparisons follow numeric order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            known = ", ".join(s.name.lower() for s in cls)
            raise ValueError(f"unknown severity {text!r}; known: {known}") from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule at one netlist location."""

    rule: str
    severity: Severity
    message: str
    element: Optional[str] = None
    port: Optional[str] = None

    @property
    def location(self) -> str:
        if self.element is None:
            return ""
        if self.port is None:
            return self.element
        return f"{self.element}.{self.port}"

    def render(self) -> str:
        location = f" at {self.location}" if self.element else ""
        return f"[{self.severity}] {self.rule}{location}: {self.message}"

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "element": self.element,
            "port": self.port,
        }


@dataclass
class Report:
    """The outcome of linting one circuit/block."""

    target: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Diagnostics dropped by per-rule suppression (kept for accounting).
    suppressed: List[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    # -- queries -----------------------------------------------------------
    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.by_severity(Severity.INFO)

    def by_rule(self, rule: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    @property
    def ok(self) -> bool:
        """True when the report carries no errors (warnings allowed)."""
        return not self.errors

    def worst(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    # -- rendering ---------------------------------------------------------
    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} note(s)"
        )

    def format_text(self, verbose: bool = True) -> str:
        lines = [f"== lint {self.target}: {self.summary()} =="]
        shown = (
            self.diagnostics
            if verbose
            else [d for d in self.diagnostics if d.severity > Severity.INFO]
        )
        lines.extend(f"  {d.render()}" for d in shown)
        if self.suppressed:
            rules = sorted({d.rule for d in self.suppressed})
            lines.append(
                f"  ({len(self.suppressed)} diagnostic(s) suppressed: "
                f"{', '.join(rules)})"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "target": self.target,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "suppressed": len(self.suppressed),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
