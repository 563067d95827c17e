"""Replayable counterexample corpus.

Every discrepancy the harness finds is persisted as one JSON file — the
shrunk spec, the oracle it failed, and enough provenance (seed, example
index, profile, original spec digest) to regenerate the unshrunk case.
Corpus files are a *regression suite*: replaying an entry re-runs exactly
the failing oracle on exactly the shrunk spec, so a fixed bug stays
fixed and an unfixed one reproduces without re-fuzzing.

Format (``"format": 1``)::

    {
      "format": 1,
      "oracle": "kernel-differential",
      "detail": "recordings: ... != ...",
      "profile": "ci", "seed": 0, "example": 17,
      "original_key": "a1b2c3d4e5f6",
      "spec": { "name": ..., "cells": [...], "stimulus": [...] }
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.errors import VerificationError
from repro.verify.oracles import OracleResult, run_oracle
from repro.verify.spec import NetlistSpec, spec_from_json

#: Version stamp of the on-disk entry layout.
FORMAT = 1

#: Default corpus location, relative to the repository root.
DEFAULT_CORPUS_DIR = Path("tests/verify/corpus")


def corpus_entry(oracle: str, detail: str, spec: NetlistSpec, *,
                 profile: str = "", seed: int = 0, example: int = 0,
                 original_key: str = "") -> Dict:
    """The JSON document for one counterexample."""
    return {
        "format": FORMAT,
        "oracle": oracle,
        "detail": detail,
        "profile": profile,
        "seed": seed,
        "example": example,
        "original_key": original_key or spec.key(),
        "spec": spec.to_json(),
    }


def entry_path(directory: Path, entry: Dict) -> Path:
    """Canonical filename: ``<oracle>-<spec digest>.json`` (dedups
    identical shrunk counterexamples across fuzzing runs)."""
    key = spec_from_json(entry["spec"]).key()
    return Path(directory) / f"{entry['oracle']}-{key}.json"


def save_entry(directory: Path, entry: Dict) -> Path:
    """Write one entry (creating the corpus directory) and return its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = entry_path(directory, entry)
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_entry(path: Path) -> Dict:
    """Read and structurally check one corpus file."""
    path = Path(path)
    try:
        entry = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, RecursionError) as error:
        raise VerificationError(f"unreadable corpus entry {path}: {error}") \
            from error
    if not isinstance(entry, dict):
        raise VerificationError(f"corpus entry {path} is not a JSON object")
    if entry.get("format") != FORMAT:
        raise VerificationError(
            f"corpus entry {path} has unsupported format "
            f"{entry.get('format')!r} (expected {FORMAT})"
        )
    for field in ("oracle", "spec"):
        if field not in entry:
            raise VerificationError(f"corpus entry {path} lacks {field!r}")
    spec_from_json(entry["spec"])  # raises if the spec is malformed
    return entry


def iter_corpus(directory: Path) -> Iterator[Tuple[Path, Dict]]:
    """All entries under ``directory``, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.json")):
        yield path, load_entry(path)


def replay_entry(entry: Dict) -> OracleResult:
    """Re-run the entry's failing oracle on its (shrunk) spec."""
    return run_oracle(entry["oracle"], spec_from_json(entry["spec"]))
