"""The sealed-kernel suite again, on the Python loop.

Where the native loop builds, ``test_kernel.py`` runs on it; this module
re-collects the same tests with ``repro.pulsesim.kernel._native`` patched
to None, so the Python loop (the only fast path on hosts without a C
compiler) keeps passing them too.
"""

import pytest

from repro.pulsesim import kernel
from tests.pulsesim.test_kernel import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def _python_loop(monkeypatch):
    monkeypatch.setattr(kernel, "_native", None)
