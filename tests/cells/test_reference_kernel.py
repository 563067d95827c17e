"""The simulating cell tests, collected again for the reference kernel.

``conftest.scalar_kernel`` pins ``REPRO_KERNEL=reference`` for every test
collected in this module, so each expectation holds on both the generic
``TableCell.handle`` interpreter and the sealed kernel's compiled opcodes.
"""

from tests.cells.test_bff import *  # noqa: F401,F403
from tests.cells.test_clocked import *  # noqa: F401,F403
from tests.cells.test_interconnect import *  # noqa: F401,F403
from tests.cells.test_logic import *  # noqa: F401,F403
from tests.cells.test_mux import *  # noqa: F401,F403
from tests.cells.test_storage import *  # noqa: F401,F403
from tests.cells.test_toggle import *  # noqa: F401,F403
