"""Boot ``repro.serve`` with the traced run's wrappers installed.

Usage: ``python perfbench/serve_traced.py SPANS.json [usfq-serve args]``.
Installs :func:`layers.install_serve` in this process, hands the
remaining arguments to the unmodified ``repro.serve`` entry point, and
writes the recorded spans to ``SPANS.json`` once the server has drained
(after SIGTERM).
"""

import sys

import layers
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    layers.install_serve(tracer)
    from repro.serve.cli import main as serve_main

    try:
        return serve_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
