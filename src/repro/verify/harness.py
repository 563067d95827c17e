"""The fuzzing loop: generate → oracle matrix → shrink → corpus.

:func:`run_verify` is the engine behind the ``usfq-verify`` CLI and the
conformance tests: it streams deterministic random specs from the
per-example RNG substreams, runs every selected oracle on each, shrinks
whatever fails, and (optionally) persists shrunk counterexamples as
corpus entries.  An oracle that *raises* counts as a discrepancy too —
a generated legal netlist must never crash the simulator stack.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import VerificationError
from repro.verify import corpus as corpusmod
from repro.verify.generator import Profile, example_rng, generate_spec, profile
from repro.verify.oracles import ORACLES
from repro.verify.shrink import DEFAULT_BUDGET, shrink
from repro.verify.spec import NetlistSpec


@dataclass(frozen=True)
class VerifyConfig:
    """One fuzzing campaign's knobs."""

    seed: int = 0
    profile: str = "ci"
    #: Overrides the profile's example count when set.
    max_examples: Optional[int] = None
    #: Subset of oracle names; ``None`` means the full matrix.
    oracles: Optional[Sequence[str]] = None
    shrink: bool = True
    shrink_budget: int = DEFAULT_BUDGET
    #: Where to persist shrunk counterexamples; ``None`` disables saving.
    corpus_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_examples is not None and self.max_examples < 1:
            # Zero examples would report a vacuous pass.
            raise VerificationError(
                f"max_examples must be >= 1, got {self.max_examples}"
            )


@dataclass
class Discrepancy:
    """One oracle failure, before and after shrinking."""

    example: int
    oracle: str
    detail: str
    spec: NetlistSpec
    shrunk: NetlistSpec
    shrink_calls: int = 0
    corpus_path: Optional[str] = None

    def to_json(self) -> Dict:
        return {
            "example": self.example,
            "oracle": self.oracle,
            "detail": self.detail,
            "original_cells": len(self.spec.cells),
            "shrunk_cells": len(self.shrunk.cells),
            "shrunk_spec": self.shrunk.to_json(),
            "corpus_path": self.corpus_path,
        }


@dataclass
class VerifyReport:
    """Campaign summary."""

    profile: str
    seed: int
    examples: int = 0
    oracle_runs: int = 0
    inapplicable: Dict[str, int] = field(default_factory=dict)
    discrepancies: List[Discrepancy] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_json(self) -> Dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "examples": self.examples,
            "oracle_runs": self.oracle_runs,
            "inapplicable": dict(self.inapplicable),
            "ok": self.ok,
            "discrepancies": [d.to_json() for d in self.discrepancies],
            "wall_s": round(self.wall_s, 3),
        }


def _select_oracles(names: Optional[Sequence[str]]) -> Dict[str, Callable]:
    if names is None:
        return dict(ORACLES)
    unknown = [name for name in names if name not in ORACLES]
    if unknown:
        known = ", ".join(ORACLES)
        raise VerificationError(
            f"unknown oracle(s) {', '.join(unknown)}; known oracles: {known}"
        )
    return {name: ORACLES[name] for name in names}


def _outcome(oracle: Callable, spec: NetlistSpec):
    """(ok, applicable, detail) — an exception is a failing outcome."""
    try:
        result = oracle(spec)
    except Exception as error:  # noqa: BLE001 - any crash is a finding
        return False, True, f"raised {type(error).__name__}: {error}"
    return result.ok, result.applicable, result.detail


def run_verify(config: VerifyConfig,
               progress: Optional[Callable[[int, int], None]] = None,
               ) -> VerifyReport:
    """Run one campaign and return its report.

    ``progress`` (if given) is called as ``progress(done, total)`` after
    every example.
    """
    prof: Profile = profile(config.profile)
    oracles = _select_oracles(config.oracles)
    total = config.max_examples if config.max_examples is not None \
        else prof.examples
    report = VerifyReport(profile=prof.name, seed=config.seed)
    started = _time.perf_counter()
    for example in range(total):
        spec = generate_spec(example_rng(config.seed, example), prof)
        report.examples += 1
        for name, oracle in oracles.items():
            ok, applicable, detail = _outcome(oracle, spec)
            report.oracle_runs += 1
            if not applicable:
                report.inapplicable[name] = \
                    report.inapplicable.get(name, 0) + 1
            if ok:
                continue
            report.discrepancies.append(
                _investigate(config, example, name, oracle, detail, spec)
            )
        if progress is not None:
            progress(example + 1, total)
    report.wall_s = _time.perf_counter() - started
    return report


def _investigate(config: VerifyConfig, example: int, name: str,
                 oracle: Callable, detail: str,
                 spec: NetlistSpec) -> Discrepancy:
    """Shrink one failure and persist it to the corpus."""
    shrunk, calls = spec, 0
    if config.shrink:
        result = shrink(
            spec,
            lambda candidate: not _outcome(oracle, candidate)[0],
            budget=config.shrink_budget,
        )
        shrunk, calls = result.spec, result.calls
    discrepancy = Discrepancy(example=example, oracle=name, detail=detail,
                              spec=spec, shrunk=shrunk, shrink_calls=calls)
    if config.corpus_dir:
        entry = corpusmod.corpus_entry(
            name, detail, shrunk, profile=config.profile,
            seed=config.seed, example=example, original_key=spec.key(),
        )
        path = corpusmod.save_entry(config.corpus_dir, entry)
        discrepancy.corpus_path = str(path)
    return discrepancy


def replay_corpus(directory: str) -> List[Dict]:
    """Replay every corpus entry; returns per-entry outcome dicts.

    A missing directory raises: a mistyped path must not replay clean.
    """
    if not Path(directory).is_dir():
        raise VerificationError(f"no corpus directory {directory}")
    outcomes = []
    for path, entry in corpusmod.iter_corpus(directory):
        try:
            result = corpusmod.replay_entry(entry)
            ok, detail = result.ok, result.detail
        except Exception as error:  # noqa: BLE001 - crash == reproduction
            ok, detail = False, f"raised {type(error).__name__}: {error}"
        outcomes.append({
            "path": str(path),
            "oracle": entry["oracle"],
            "ok": ok,
            "detail": detail,
        })
    return outcomes
