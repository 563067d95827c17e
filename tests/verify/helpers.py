"""Defect-injection tooling for harness self-tests.

The fast kernels compile a cell inline exactly when its class runs the
table interpreter ``TableCell.handle``, so a table cell whose ``handle``
was overridden is (correctly) demoted to the generic-call opcode — both
kernels then agree on the patched behaviour and nothing diverges.
:func:`inline_defect` therefore patches ``TableCell.handle`` itself, with
a wrapper that runs the modified handler for one cell class only: the
reference loop runs the modified handler while the sealed kernel keeps
compiling the stock table.  That is exactly the bug class the
kernel-differential oracle exists for — a compiled opcode whose
semantics drift from the reference implementation.
"""

import contextlib

from repro.pulsesim.element import TableCell


@contextlib.contextmanager
def inline_defect(cell_cls, handler):
    """Run with the reference semantics of ``cell_cls`` replaced by
    ``handler`` while the sealed kernel still compiles its table inline."""
    stock = TableCell.handle

    def patched(self, sim, port, time):
        if type(self) is cell_cls:
            return handler(self, sim, port, time)
        return stock(self, sim, port, time)

    TableCell.handle = patched
    try:
        yield
    finally:
        TableCell.handle = stock
