"""``usfq-serve``: boot the accelerator service from the command line.

The listening line (``usfq-serve listening on http://host:port``) goes to
stdout and is flushed immediately — with ``--port 0`` that line is how a
spawning process (the load generator, the CI smoke job) learns the
ephemeral port.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Optional, Sequence

from repro.cli import run
from repro.errors import ConfigurationError
from repro.serve.server import ServeConfig, ServeService, serve_forever


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usfq-serve",
        description=(
            "Serve U-SFQ accelerator ops (DPU dot products, FIR filters, "
            "PE-array ops) over HTTP/JSON with micro-batched execution."
        ),
    )
    defaults = ServeConfig()
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help="TCP port (0 binds an ephemeral port, printed on stdout)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=defaults.max_batch,
        help="lanes per coalesced dispatch; 1 disables coalescing",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=defaults.workers,
        help="worker processes (0 = inline execution in threads)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=defaults.max_pending,
        help="admission ceiling; beyond it requests get HTTP 429",
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=defaults.cache_entries,
        help="response-cache capacity (0 disables caching)",
    )
    parser.add_argument(
        "--drain-grace-s",
        type=float,
        default=defaults.drain_grace_s,
        help="seconds to wait for in-flight work on shutdown",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        workers=args.workers,
        max_pending=args.max_pending,
        cache_entries=args.cache_entries,
        drain_grace_s=args.drain_grace_s,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser(), argv, _serve)


def _serve(args: argparse.Namespace) -> int:
    config = config_from_args(args)

    def ready(service: ServeService, port: int) -> None:
        print(
            f"usfq-serve listening on http://{config.host}:{port} "
            f"(max_batch={config.max_batch}, workers={config.workers})",
            flush=True,
        )

    try:
        asyncio.run(serve_forever(config, ready=ready))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass
    except OSError as exc:
        raise ConfigurationError(
            f"cannot serve on {config.host}:{config.port}: {exc}"
        ) from exc
    return 0
