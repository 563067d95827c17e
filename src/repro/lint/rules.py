"""The lint rule catalogue: RSFQ design rules over a :class:`CircuitGraph`.

Every rule is a function ``rule(ctx) -> list[Diagnostic]`` registered in
:data:`RULES` with a category and a default severity.  Rules never mutate
the circuit; they read the pre-computed :class:`~repro.lint.graph.CircuitGraph`
on the :class:`LintContext`.

The physical rationale for each rule is catalogued in ``docs/linting.md``;
in one line each:

* SFQ pulses are single flux quanta — an output can drive exactly one
  input, and fanout/fan-in must go through explicit splitter/merger cells
  whose SQUIDs regenerate the pulse (Table 1 of the paper).
* Pass-through loops circulate a pulse forever (the simulator's
  ``max_events`` guard is the dynamic symptom; the DRC finds it statically).
* Clocked cells without a clock driver can never emit.
* Combinational paths must fit inside the computing epoch
  (``2^B`` cycles of t_INV / t_BFF / t_TFF2, paper section 4).
* Mergers lose one of two pulses arriving within their dead time (Fig 5b).
* A block's structural JJ total must track the analytical area model it
  calibrates (DESIGN.md section 5).

The two timing rules report the findings of the pulse-flow analyzer
(:mod:`repro.analyze`) under its single-wave convention: one pulse into
each entry port at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.encoding.epoch import EpochSpec
from repro.lint.graph import CircuitGraph, Endpoint
from repro.lint.report import Diagnostic, Severity
from repro.pulsesim.element import CellRole
from repro.pulsesim.netlist import Circuit

if TYPE_CHECKING:
    from repro.analyze.api import Analysis


@dataclass
class LintContext:
    """Everything a rule may consult."""

    circuit: Circuit
    graph: CircuitGraph
    epoch: Optional[EpochSpec] = None
    expected_jj: Optional[int] = None
    jj_tolerance: float = 0.15
    #: JJ total to compare against ``expected_jj``; defaults to the
    #: circuit's own count but blocks may scope it to their cells.
    actual_jj: Optional[int] = None
    #: The ``(element, input_port)`` pairs the graph was seeded with.
    entry_points: Sequence[Endpoint] = ()
    _analysis: Optional["Analysis"] = field(default=None, repr=False)

    def analysis(self) -> "Analysis":
        """The pulse-flow analysis behind the timing rules (run once)."""
        if self._analysis is None:
            from repro.analyze.api import AnalyzeConfig, analyze_circuit

            self._analysis = analyze_circuit(
                self.circuit, self.entry_points,
                config=AnalyzeConfig(epoch=self.epoch), graph=self.graph,
            )
        return self._analysis


@dataclass(frozen=True)
class RuleInfo:
    """Registry metadata for one rule."""

    name: str
    category: str  # "drc" | "timing" | "budget"
    severity: Severity
    summary: str
    check: Callable[[LintContext], List[Diagnostic]] = field(compare=False)


RULES: Dict[str, RuleInfo] = {}


def rule(name: str, category: str, severity: Severity, summary: str):
    """Decorator registering a rule in :data:`RULES`."""

    def register(check: Callable[[LintContext], List[Diagnostic]]):
        RULES[name] = RuleInfo(name, category, severity, summary, check)
        return check

    return register


def _diag(info_name: str, message: str, element=None, port=None,
          severity: Optional[Severity] = None) -> Diagnostic:
    info = RULES[info_name]
    return Diagnostic(
        rule=info.name,
        severity=severity or info.severity,
        message=message,
        element=element.name if element is not None else None,
        port=port,
    )


# -- design-rule checks --------------------------------------------------------
@rule(
    "implicit-fanout",
    "drc",
    Severity.ERROR,
    "An output port drives more than one sink without a splitter cell.",
)
def check_implicit_fanout(ctx: LintContext) -> List[Diagnostic]:
    diagnostics = []
    for element in ctx.circuit.elements:
        for port in element.output_names:
            wires = ctx.graph.fan_out(element, port)
            if len(wires) > 1:
                sinks = ", ".join(
                    f"{w.sink.name}.{w.sink_port}" for w in wires
                )
                diagnostics.append(
                    _diag(
                        "implicit-fanout",
                        f"drives {len(wires)} sinks ({sinks}); an SFQ pulse "
                        "is one flux quantum — insert an explicit splitter",
                        element,
                        port,
                    )
                )
    return diagnostics


@rule(
    "unmerged-fanin",
    "drc",
    Severity.ERROR,
    "Several wires land on one input port of a non-merger cell.",
)
def check_unmerged_fanin(ctx: LintContext) -> List[Diagnostic]:
    diagnostics = []
    for element in ctx.circuit.elements:
        is_merger = element.has_role(CellRole.MERGER)
        for port in element.input_names:
            wires = ctx.graph.fan_in(element, port)
            if len(wires) <= 1:
                continue
            sources = ", ".join(
                f"{w.source.name}.{w.source_port}" for w in wires
            )
            if is_merger:
                diagnostics.append(
                    _diag(
                        "unmerged-fanin",
                        f"{len(wires)} wires ({sources}) share a merger input; "
                        "confluence inside the cell hides per-input collisions",
                        element,
                        port,
                        severity=Severity.INFO,
                    )
                )
            else:
                diagnostics.append(
                    _diag(
                        "unmerged-fanin",
                        f"{len(wires)} wires ({sources}) drive one input; "
                        "wired-OR does not exist in RSFQ — insert a merger",
                        element,
                        port,
                    )
                )
    return diagnostics


@rule(
    "floating-input",
    "drc",
    Severity.WARNING,
    "An input port is neither wired nor declared an external entry point.",
)
def check_floating_input(ctx: LintContext) -> List[Diagnostic]:
    diagnostics = []
    for element in ctx.circuit.elements:
        for port in element.input_names:
            if not ctx.graph.is_driven(element, port):
                diagnostics.append(
                    _diag(
                        "floating-input",
                        "never receives a pulse; dead port or missing wire",
                        element,
                        port,
                    )
                )
    return diagnostics


@rule(
    "dead-element",
    "drc",
    Severity.WARNING,
    "A cell is unreachable from every stimulus entry point.",
)
def check_dead_element(ctx: LintContext) -> List[Diagnostic]:
    if not ctx.graph.entry_elements:
        return [
            Diagnostic(
                rule="dead-element",
                severity=Severity.WARNING,
                message=(
                    "no entry points declared; reachability analysis is "
                    "vacuous (pass entry_points= or lint via a Block)"
                ),
            )
        ]
    reachable = ctx.graph.reachable_elements()
    return [
        _diag(
            "dead-element",
            "no pulse can ever reach this cell from the declared stimuli",
            element,
        )
        for element in ctx.circuit.elements
        if id(element) not in reachable
    ]


@rule(
    "dangling-output",
    "drc",
    Severity.WARNING,
    "An output port has no sink, no probe, and is not a block output.",
)
def check_dangling_output(ctx: LintContext) -> List[Diagnostic]:
    diagnostics = []
    for element in ctx.circuit.elements:
        for port in element.output_names:
            if ctx.graph.fan_out(element, port):
                continue
            if ctx.graph.is_observed(element, port):
                continue
            if element.has_role(CellRole.BUFFER):
                diagnostics.append(
                    _diag(
                        "dangling-output",
                        "unconnected, but the cell is a buffer — treated as "
                        "an intentional termination",
                        element,
                        port,
                        severity=Severity.INFO,
                    )
                )
            else:
                diagnostics.append(
                    _diag(
                        "dangling-output",
                        "pulses emitted here vanish unobserved; probe the "
                        "port, expose it, or terminate it with a JTL",
                        element,
                        port,
                    )
                )
    return diagnostics


@rule(
    "combinational-loop",
    "drc",
    Severity.ERROR,
    "A feedback loop contains no storage cell to absorb the pulse.",
)
def check_combinational_loop(ctx: LintContext) -> List[Diagnostic]:
    diagnostics = []
    for cycle in ctx.graph.combinational_cycles():
        names = " -> ".join(element.name for element in cycle)
        diagnostics.append(
            _diag(
                "combinational-loop",
                f"pass-through cycle [{names}] circulates a pulse forever; "
                "break it with a storage cell (DFF/NDRO/TFF)",
                cycle[0],
            )
        )
    return diagnostics


@rule(
    "no-clock-driver",
    "drc",
    Severity.ERROR,
    "A clocked cell has no driven clock/readout port.",
)
def check_no_clock_driver(ctx: LintContext) -> List[Diagnostic]:
    diagnostics = []
    for element in ctx.circuit.elements:
        if not element.has_role(CellRole.CLOCKED):
            continue
        clock_ports = type(element).CLOCK_PORTS
        if not clock_ports:
            continue
        if any(ctx.graph.is_driven(element, port) for port in clock_ports):
            continue
        ports = "/".join(clock_ports)
        diagnostics.append(
            _diag(
                "no-clock-driver",
                f"clock port(s) {ports} undriven; the cell can never emit",
                element,
                clock_ports[0],
            )
        )
    return diagnostics


# -- timing: the pulse-flow analyzer's verdicts --------------------------------
def _analyzer_diagnostics(ctx: LintContext, name: str) -> List[Diagnostic]:
    """The analyzer's ``name`` findings, as this rule's diagnostics."""
    severity = RULES[name].severity
    return [
        Diagnostic(rule=name, severity=severity, message=finding.message,
                   element=finding.element, port=finding.port)
        for finding in ctx.analysis().report.findings
        if finding.check == name
    ]


@rule(
    "epoch-overflow",
    "timing",
    Severity.ERROR,
    "A worst-case path is longer than the computing epoch.",
)
def check_epoch_overflow(ctx: LintContext) -> List[Diagnostic]:
    if ctx.epoch is None:
        return []
    return _analyzer_diagnostics(ctx, "epoch-overflow")


@rule(
    "merger-collision",
    "timing",
    Severity.WARNING,
    "Two merger inputs can arrive within the cell's dead time.",
)
def check_merger_collision(ctx: LintContext) -> List[Diagnostic]:
    return _analyzer_diagnostics(ctx, "merger-collision")


# -- area budget ---------------------------------------------------------------
@rule(
    "jj-budget",
    "budget",
    Severity.WARNING,
    "The structural JJ count diverges from the analytical area model.",
)
def check_jj_budget(ctx: LintContext) -> List[Diagnostic]:
    if ctx.expected_jj is None:
        return []
    actual = ctx.actual_jj if ctx.actual_jj is not None else ctx.circuit.jj_count
    expected = ctx.expected_jj
    if expected <= 0:
        raise ValueError(f"expected_jj must be positive, got {expected}")
    divergence = abs(actual - expected) / expected
    if actual == expected:
        message = f"structural count {actual} JJ matches the area model"
        severity = Severity.INFO
    elif divergence <= ctx.jj_tolerance:
        message = (
            f"structural count {actual} JJ vs analytical {expected} JJ "
            f"({divergence:.1%} divergence, within {ctx.jj_tolerance:.0%} "
            "calibration tolerance)"
        )
        severity = Severity.INFO
    else:
        message = (
            f"structural count {actual} JJ diverges from analytical "
            f"{expected} JJ by {divergence:.1%} (> {ctx.jj_tolerance:.0%}); "
            "re-calibrate repro.models.area or fix the netlist"
        )
        severity = Severity.WARNING
    return [
        Diagnostic(
            rule="jj-budget",
            severity=severity,
            message=message,
        )
    ]


@rule(
    "noc-link-lookahead",
    "timing",
    Severity.ERROR,
    "A NoC link cell must carry a positive minimum latency and a usable FIFO.",
)
def check_noc_link_lookahead(ctx: LintContext) -> List[Diagnostic]:
    """NOC-role cells carry the conservative-sync lookahead.

    The partitioned parallel engine (:mod:`repro.shard`) advances shards
    in time windows bounded by the minimum latency of the slowest-proof
    cut link; a NOC cell with zero latency would collapse the window to
    nothing and deadlock the protocol, and a zero-depth FIFO drops every
    flit.  :class:`~repro.cells.noc.NocLink` enforces both at
    construction; this rule keeps the invariant for custom NOC cells.
    """
    diagnostics = []
    for element in ctx.circuit.elements:
        if not element.has_role(CellRole.NOC):
            continue
        if element.propagation_delay_fs < 1:
            diagnostics.append(
                _diag(
                    "noc-link-lookahead",
                    f"minimum latency {element.propagation_delay_fs} fs is "
                    "not positive; the conservative-sync lookahead would be "
                    "zero and the partitioned engine could never advance",
                    element,
                )
            )
        fifo_depth = getattr(element, "fifo_depth", None)
        if fifo_depth is not None and fifo_depth < 1:
            diagnostics.append(
                _diag(
                    "noc-link-lookahead",
                    f"link FIFO depth {fifo_depth} buffers nothing; every "
                    "flit would be dropped",
                    element,
                )
            )
    return diagnostics


def rule_catalogue() -> List[RuleInfo]:
    """All registered rules, DRC first, then timing, then budget."""
    order = {"drc": 0, "timing": 1, "budget": 2}
    return sorted(RULES.values(), key=lambda info: (order[info.category], info.name))
