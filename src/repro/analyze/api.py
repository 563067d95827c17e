"""The analyzer front door: :func:`analyze_circuit`.

Two entry abstractions cover the two use cases:

* **proof mode** (no ``stimulus``): every entry port carries *at most
  one* pulse at t = 0 — the single-wave convention the linter's timing
  rules report — so epoch/collision conclusions are proofs over the
  block's single-wave operating regime;
* **stimulus mode** (``stimulus`` maps entry ports to concrete pulse
  trains): every entry carries the *exact* abstraction of its train, so
  the bounds are directly comparable to one simulation — the contract
  the repro.verify soundness oracle enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analyze import checks
from repro.analyze.domain import (
    INF,
    PulseBounds,
    bounds_to_dict,
    single_pulse_bounds,
    stimulus_bounds,
)
from repro.analyze.engine import FixpointResult, fixpoint
from repro.analyze.report import AnalysisReport, Finding
from repro.analyze.transfer import epoch_latency_fs, epoch_relative_transfer
from repro.encoding.epoch import EpochSpec
from repro.lint.graph import CircuitGraph, Endpoint
from repro.pulsesim.element import Element
from repro.pulsesim.netlist import Circuit

#: Check names accepted by :attr:`AnalyzeConfig.waive`.
CHECKS: Tuple[str, ...] = ("epoch-overflow", "merger-collision", "dead-path")


@dataclass(frozen=True)
class AnalyzeConfig:
    """Analysis policy knobs."""

    #: Computing epoch to prove emission windows against (optional).
    epoch: Optional[EpochSpec] = None
    #: Check names whose findings are recorded but not counted.
    waive: FrozenSet[str] = frozenset()


@dataclass
class Analysis:
    """Converged abstract state plus the derived report."""

    fixpoint: FixpointResult
    report: AnalysisReport
    config: AnalyzeConfig = field(default_factory=AnalyzeConfig)

    # -- bound lookups (the soundness-oracle surface) -----------------------
    def input_bounds(self, element: Element, port: str) -> PulseBounds:
        return self.fixpoint.input_bounds(element, port)

    def output_bounds(self, element: Element, port: str) -> PulseBounds:
        return self.fixpoint.output_bounds(element, port)

    @property
    def queue_depth_bound(self) -> int:
        """Static peak-queue-depth bound (:data:`INF` when unbounded)."""
        return checks.queue_depth_bound(self.fixpoint)

    @property
    def switching_events(self) -> Tuple[int, int]:
        """``[lo, hi]`` JJ switching-event envelope for one run."""
        return checks.switching_event_envelope(self.fixpoint)

    def bounds_table(self) -> List[Dict[str, object]]:
        """Every (element, port) bound, JSON-ready (for --json output)."""
        rows: List[Dict[str, object]] = []
        for element in self.fixpoint.circuit.elements:
            for port in element.input_names:
                rows.append({
                    "element": element.name, "port": port, "dir": "in",
                    "bounds": bounds_to_dict(
                        self.fixpoint.input_bounds(element, port)),
                })
            for port in element.output_names:
                rows.append({
                    "element": element.name, "port": port, "dir": "out",
                    "bounds": bounds_to_dict(
                        self.fixpoint.output_bounds(element, port)),
                })
        return rows


#: Proof-mode entry abstraction (shared immutable value).
_SINGLE_PULSE_AT_0 = single_pulse_bounds(0)


def _entry_abstraction(
    graph: CircuitGraph,
    entry_points: Sequence[Endpoint],
    stimulus: Optional[Mapping[Endpoint, Sequence[int]]],
) -> Dict[Tuple[int, str], PulseBounds]:
    entry_bounds: Dict[Tuple[int, str], PulseBounds] = {}
    for element, port in entry_points:
        entry_bounds[(id(element), port)] = _SINGLE_PULSE_AT_0
    if stimulus is not None:
        for (element, port), times in stimulus.items():
            entry_bounds[(id(element), port)] = stimulus_bounds(list(times))
        # Entry ports with no declared train provably stay silent.
        for element, port in entry_points:
            key = (id(element), port)
            if stimulus_key_missing(stimulus, element, port):
                entry_bounds[key] = stimulus_bounds([])
    return entry_bounds


def _has_epoch_latent_cells(circuit: Circuit) -> bool:
    """Whether any cell carries whole-epoch latency (cached by topology
    version, same idiom as the engine's evaluation plan)."""
    version = circuit._version
    cached = getattr(circuit, "_pulseflow_latent", None)
    if cached is not None and cached[0] == version:
        latent: bool = cached[1]
        return latent
    latent = any(epoch_latency_fs(e) for e in circuit.elements)
    circuit._pulseflow_latent = (version, latent)  # type: ignore[attr-defined]
    return latent


def stimulus_key_missing(stimulus: Mapping[Endpoint, Sequence[int]],
                         element: Element, port: str) -> bool:
    return not any(
        id(se) == id(element) and sp == port for se, sp in stimulus
    )


def analyze_circuit(
    circuit: Circuit,
    entry_points: Iterable[Endpoint] = (),
    observed_outputs: Iterable[Endpoint] = (),
    config: Optional[AnalyzeConfig] = None,
    stimulus: Optional[Mapping[Endpoint, Sequence[int]]] = None,
    target: Optional[str] = None,
    graph: Optional[CircuitGraph] = None,
) -> Analysis:
    """Abstract-interpret ``circuit`` and derive the static checks.

    Args:
        circuit: The netlist to analyse (never mutated).
        entry_points: ``(element, input_port)`` pairs driven externally.
        observed_outputs: ``(element, output_port)`` block outputs;
            probed ports are always observed.
        config: Policy (epoch to prove, waivers).
        stimulus: Optional exact pulse trains per entry endpoint; keys
            not in ``entry_points`` are added as entries.
        target: Report label (defaults to the circuit name).
        graph: Pre-built :class:`CircuitGraph` to reuse, if the caller
            (e.g. the linter) already paid for one.
    """
    config = config or AnalyzeConfig()
    entries: List[Endpoint] = list(entry_points)
    if stimulus is not None:
        known = {(id(e), p) for e, p in entries}
        for element, port in stimulus:
            if (id(element), port) not in known:
                entries.append((element, port))
    if graph is None:
        graph = CircuitGraph(circuit, entries, observed_outputs)
    entry_bounds = _entry_abstraction(graph, entries, stimulus)

    fx = fixpoint(circuit, graph, entry_bounds)

    report = AnalysisReport(target=target or circuit.name)
    stats = report.stats
    findings: List[Finding] = []
    if config.epoch is not None and _has_epoch_latent_cells(circuit):
        # Whole-epoch storage (RL buffers / memory cells) belongs to the
        # epoch boundary, not the path: prove against the epoch-relative
        # fixpoint when any such cell is present.
        epoch_fx = fixpoint(circuit, graph, entry_bounds,
                            transfer_fn=epoch_relative_transfer)
        scan = checks.scan_outputs(fx)
        epoch_scan: Optional[checks.OutputScan] = checks.scan_outputs(
            epoch_fx, config.epoch)
    else:
        # The common case: one sweep yields overflow findings, slack,
        # the queue bound, and the switching envelope together.
        scan = checks.scan_outputs(fx, config.epoch)
        epoch_scan = scan if config.epoch is not None else None
    if config.epoch is not None and epoch_scan is not None:
        findings.extend(epoch_scan.overflow)
        stats["epoch_budget_fs"] = config.epoch.duration_fs
        stats["epoch_slack_fs"] = epoch_scan.slack_fs
    collision_findings, proved, checked = checks.merger_collision_findings(fx)
    findings.extend(collision_findings)
    stats["mergers_checked"] = checked
    stats["mergers_proved"] = proved
    if stimulus is not None:
        # Liveness needs a concrete stimulus: proof mode's one-pulse wave
        # deliberately under-drives toggling storage (TFF chains), so
        # "never pulses" would be an artefact there, not a defect.
        findings.extend(checks.dead_path_findings(fx))

    if config.waive and findings:
        for finding in findings:
            if finding.check in config.waive:
                report.waived.append(finding)
            else:
                report.findings.append(finding)
    else:
        report.findings.extend(findings)

    bound = scan.queue_bound
    events_lo = scan.events_lo
    events_hi = scan.events_hi
    stats["queue_depth_bound"] = None if bound >= INF else bound
    energy_lo, energy_hi = checks.energy_from_events(events_lo, events_hi)
    stats["switching_events_lo"] = events_lo
    stats["switching_events_hi"] = (
        None if events_hi >= INF else events_hi
    )
    stats["switching_energy_lo_j"] = energy_lo
    stats["switching_energy_hi_j"] = energy_hi
    stats["fixpoint_iterations"] = fx.iterations
    stats["widened_elements"] = len(fx.widened)
    return Analysis(fixpoint=fx, report=report, config=config)
