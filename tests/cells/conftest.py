"""Run the cell-semantics tests on both scalar kernels.

The hand-written expectations in this directory are the semantic
reference for every transition table.  Each test module runs on the
sealed kernel; ``test_reference_kernel.py`` collects the same tests a
second time, and this fixture runs that copy on the reference kernel.
"""

import pytest

from repro.pulsesim.kernel import KERNEL_ENV


@pytest.fixture(autouse=True)
def scalar_kernel(request, monkeypatch):
    """Pin ``REPRO_KERNEL`` for every test in this directory."""
    name = request.module.__name__.rpartition(".")[2]
    kernel = "reference" if name == "test_reference_kernel" else "sealed"
    monkeypatch.setenv(KERNEL_ENV, kernel)
    return kernel
