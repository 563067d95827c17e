"""Build and load the native sealed loop (``_sealed.c``) on first use.

The C source ships inside the package.  The first process that needs it
compiles it with the interpreter's own compiler and headers (``CC``,
the include directory and ``EXT_SUFFIX`` from :mod:`sysconfig`) into
``__pycache__/`` beside the source.  The module's file name carries a
digest of the source, the compile command and ``EXT_SUFFIX``, so an edited
source or another interpreter builds its own copy, and every later
process just imports the cached one.  Each build writes a temporary file
and renames it into place, so processes that build at the same moment
(two shard workers on a cold cache) each end with a whole module.  Once
a new module is in place, the builds it supersedes (the same
``EXT_SUFFIX``, another digest) are deleted.

Any failure (no compiler, no ``Python.h``, an unwritable directory, a
compile or import error) leaves :func:`try_load` returning None, and the
sealed kernel runs its Python loop instead.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import re
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import List, Optional

SOURCE = Path(__file__).with_name("_sealed.c")
CACHE_DIR = SOURCE.parent / "__pycache__"

_FLAGS = ("-O2", "-shared", "-fPIC")


def compile_command() -> List[str]:
    """The compiler invocation, without its source and output paths."""
    cc = sysconfig.get_config_var("CC")
    include = sysconfig.get_paths()["include"]
    if not cc or not include:
        raise OSError("this interpreter records no C compiler or include path")
    return [*shlex.split(cc), *_FLAGS, f"-I{include}"]


def _suffix() -> str:
    return sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def module_path(directory: Path = CACHE_DIR, source: Path = SOURCE) -> Path:
    """Where the module built from ``source`` lives in ``directory``."""
    suffix = _suffix()
    digest = hashlib.sha256()
    for part in (source.read_bytes(), "\0".join(compile_command()).encode(),
                 suffix.encode()):
        digest.update(part)
        digest.update(b"\0")
    return directory / f"_sealed.{digest.hexdigest()[:16]}{suffix}"


def build(directory: Path = CACHE_DIR, source: Path = SOURCE) -> Path:
    """Compile ``source`` into ``directory`` unless already there."""
    target = module_path(directory, source)
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=directory
    )
    os.close(handle)
    try:
        subprocess.run(
            [*compile_command(), str(source), "-o", partial],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    _prune(target)
    return target


def _prune(keep: Path) -> None:
    """Delete the other builds beside ``keep`` made for this interpreter.

    Only ``_sealed.<digest><EXT_SUFFIX>`` files go: a concurrent build's
    temporary file and another interpreter's module stay.
    """
    built = re.compile(r"_sealed\.[0-9a-f]{16}" + re.escape(_suffix()))
    for path in keep.parent.iterdir():
        if path != keep and built.fullmatch(path.name):
            try:
                path.unlink()
            except OSError:
                pass


def import_path(path: Path) -> ModuleType:
    """Import the extension module at ``path``."""
    spec = importlib.util.spec_from_file_location(
        "repro.pulsesim._sealed", path
    )
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def try_load(directory: Path = CACHE_DIR) -> Optional[ModuleType]:
    """Build (if needed) and import the module; None on any failure, which
    leaves the sealed kernel on its Python loop."""
    try:
        return import_path(build(directory))
    except Exception:
        return None


__all__ = ["build", "compile_command", "import_path", "module_path",
           "try_load"]
