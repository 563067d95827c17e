"""Content-addressing primitives shared by the runner cache and the server.

Two subsystems need to answer "is this exact computation already done?":
the experiment runner's on-disk result cache (:mod:`repro.runner.cache`)
and the serving layer's in-memory response cache (:mod:`repro.serve.cache`).
Both build keys the same way — a digest of the *code* that would produce
the result (so any source edit invalidates everything automatically) mixed
with a canonical rendering of the *inputs* — so the machinery lives here,
dependency-free, importable from anywhere in the tree.

:func:`source_digest` hashes every Python and C source file under
``src/repro`` (it moved here from ``repro.runner.cache``, which re-exports
it unchanged); the C source is the sealed kernel's native loop.
:func:`canonical_json` is the one JSON rendering used for cache keys and
for response bodies that must be byte-identical across runs: sorted keys,
no whitespace, explicit float repr via the stdlib encoder.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Any, Optional


def source_digest(root: Optional[Path] = None) -> str:
    """Hash every ``*.py`` and ``*.c`` file under the ``repro`` package
    (or ``root``)."""
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    sources = [*root.rglob("*.py"), *root.rglob("*.c")]
    for path in sorted(sources):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def cached_source_digest() -> str:
    """:func:`source_digest` of the installed tree, computed once per process.

    Long-running processes (the serving layer) key every cache entry on the
    code content; re-hashing ~200 files per request would defeat the cache,
    and the tree cannot change under a running process without a restart
    anyway.
    """
    return source_digest()


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN/Inf.

    This is the *only* rendering used for content-addressed keys and for
    servable response bodies, so "same payload" and "same bytes" coincide.
    """
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        ensure_ascii=True,
    )


def payload_digest(*parts: str) -> str:
    """SHA-256 over ``parts`` joined with NUL separators, hex-encoded."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


__all__ = [
    "cached_source_digest",
    "canonical_json",
    "payload_digest",
    "source_digest",
]
