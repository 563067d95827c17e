"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports every name it re-exports loads all of
its submodules, and all that they import, for any one of them.
:func:`exports` gives the package a module ``__getattr__`` that imports a
name's defining module the first time the name is read, so a process
loads only what it runs.  ``__all__``, ``from package import *`` and
``dir(package)`` see every name, as before.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def exports(
    package: str, modules: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, which re-exports the
    names each module of ``modules`` (module name -> names) defines.

    A resolved name is set on the package, so the hook runs once per name.
    """
    home: Dict[str, str] = {
        name: module for module, names in modules.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__


__all__ = ["exports"]
