"""The front door shared by the eight ``usfq-*`` commands.

Each command's ``cli.py`` builds its own parser, keeps its own flags and
renders its own output.  The decisions they have in common live here:

* :func:`run` parses ``argv``, runs the command and enforces the exit
  contract of ``docs/running.md``: 0 success, 1 the command ran and its
  gate tripped, 2 the input was refused.  A usage error exits 2 through
  argparse; any :class:`~repro.errors.ReproError` becomes one
  ``usfq-<name>: error: ...`` line on stderr and exit 2.
* :func:`add_block_targets`, :func:`add_list_blocks` and
  :func:`selected_blocks`: shipped-block targets (``BLOCK...``,
  ``--all-blocks``, ``--list-blocks``) for lint, analyze and shard.
* :func:`add_fail_on` (lint, analyze) and :func:`gate_status` (lint,
  analyze, synth): ``--fail-on`` and the exit status it implies.
* :func:`write_output`: every file a command writes; :func:`make_dir`
  creates its directory up front for commands that print before they
  write.

``usfq-serve`` boots through :func:`run`, so this module stays
import-light: the block registry and ``Severity`` are imported inside the
functions that use them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Union

from repro.errors import ConfigurationError, ReproError

if TYPE_CHECKING:
    from repro.lint.report import Severity

#: ``--fail-on`` choices, lowest severity first; ``never`` always exits 0.
FAIL_ON = ("info", "warning", "error", "never")


def run(
    parser: argparse.ArgumentParser,
    argv: Optional[Sequence[str]],
    command: Callable[[argparse.Namespace], int],
) -> int:
    """Parse ``argv`` and return ``command``'s exit status.

    ``--list-blocks`` (see :func:`add_list_blocks`) is answered here,
    before the command runs.
    """
    args = parser.parse_args(argv)
    try:
        if getattr(args, "list_blocks", False):
            from repro.lint.blocks import SHIPPED_BLOCKS

            for entry in SHIPPED_BLOCKS.values():
                print(f"{entry.name:20s} {entry.description}")
            return 0
        return command(args)
    except ReproError as error:
        print(f"{parser.prog.split()[0]}: error: {error}", file=sys.stderr)
        return 2


def add_list_blocks(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--list-blocks", action="store_true", help="list the shipped block names"
    )


def add_block_targets(parser: argparse.ArgumentParser, verb: str) -> None:
    """``BLOCK...``, ``--all-blocks`` and ``--list-blocks``."""
    parser.add_argument(
        "blocks",
        nargs="*",
        metavar="BLOCK",
        help=f"shipped block names to {verb} (see --list-blocks)",
    )
    parser.add_argument(
        "--all-blocks",
        action="store_true",
        help=f"{verb} every shipped structural block",
    )
    add_list_blocks(parser)


def selected_blocks(
    parser: argparse.ArgumentParser, args: argparse.Namespace, verb: str
) -> List[str]:
    """The names :func:`add_block_targets` selected; a usage error when
    there are none or one is not a shipped block."""
    from repro.lint.blocks import SHIPPED_BLOCKS

    names: List[str] = list(SHIPPED_BLOCKS) if args.all_blocks else args.blocks
    if not names:
        parser.error(f"nothing to {verb}: pass block names or --all-blocks")
    unknown = [name for name in names if name not in SHIPPED_BLOCKS]
    if unknown:
        parser.error(f"unknown block(s) {', '.join(unknown)}; see --list-blocks")
    return names


def add_fail_on(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fail-on",
        default="error",
        choices=FAIL_ON,
        help="lowest severity that makes the exit status 1 (default: error)",
    )


def gate_status(fail_on: str, severities: Iterable[Severity]) -> int:
    """The exit status ``--fail-on`` implies: 1 when any of ``severities``
    reaches it, else 0."""
    if fail_on == "never":
        return 0
    from repro.lint.report import Severity

    level = Severity.parse(fail_on)
    return int(any(severity >= level for severity in severities))


def make_dir(directory: Union[str, Path]) -> None:
    """Create ``directory`` and its parents; an unusable path is a
    :class:`~repro.errors.ConfigurationError`."""
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
    except OSError as error:
        message = f"cannot create directory {directory}: {error}"
        raise ConfigurationError(message) from error


def write_output(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path``, creating its parent directories."""
    target = Path(path)
    make_dir(target.parent)
    try:
        target.write_text(text)
    except OSError as error:
        raise ConfigurationError(f"cannot write {path}: {error}") from error
