#!/usr/bin/env python3
"""Closed-loop load generator for the usfq-serve HTTP service.

Fires ``--requests`` distinct DPU dot-product requests at ``--concurrency``
closed-loop client threads and reports throughput plus p50/p95/p99
latency as JSON.  Two ways to point it at a server:

* ``--url http://host:port`` — attack a server you booted yourself;
* ``--spawn`` — boot ``python -m repro.serve`` as a subprocess on an
  ephemeral port (flags after ``--`` pass through, e.g.
  ``--spawn -- --max-batch 1``), parse the listening line, attack it,
  SIGTERM it, and check it drained cleanly.

The CI smoke job runs exactly this against both a coalescing and a
``--max-batch 1`` server; the committed ``results/serve`` evidence is
the same tool on a quiet machine.  A second pass over the *same*
request set (``--passes 2``) measures the warm-cache path — every
pass-2 request is a content-addressed cache hit.

Example::

    PYTHONPATH=src python benchmarks/loadgen.py --spawn \\
        --concurrency 64 --requests 256 --bits 5 --length 8 --bipolar \\
        -- --max-batch 64 --workers 1
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

_LISTEN_RE = re.compile(r"listening on http://([^:]+):(\d+)")


def build_requests(
    count: int, bits: int, length: int, bipolar: bool, seed: int
) -> List[Dict[str, Any]]:
    """``count`` distinct dot-product payloads over one DPU config."""
    rng = random.Random(seed)
    n_max = 1 << bits
    config = {
        "bits": bits,
        "slot_fs": 40_000,
        "length": length,
        "bipolar": bipolar,
    }
    return [
        {
            "op": "dpu.dot",
            "config": dict(config),
            "a_slots": [rng.randrange(n_max + 1) for _ in range(length)],
            "b_counts": [rng.randrange(n_max + 1) for _ in range(length)],
        }
        for _ in range(count)
    ]


def _percentile(ordered: List[float], fraction: float) -> float:
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def run_pass(
    host: str,
    port: int,
    payloads: List[Dict[str, Any]],
    concurrency: int,
    timeout: float,
) -> Dict[str, Any]:
    """One closed-loop pass: every payload once, ``concurrency`` clients."""
    latencies: List[float] = []
    cache_hits = 0
    errors: List[str] = []
    lock = threading.Lock()
    cursor = iter(range(len(payloads)))

    def client() -> None:
        nonlocal cache_hits
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                body = json.dumps(payloads[index]).encode()
                started = time.perf_counter()
                try:
                    connection.request(
                        "POST",
                        "/v1/compute",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    data = response.read()
                    elapsed_ms = (time.perf_counter() - started) * 1e3
                except OSError as exc:
                    with lock:
                        errors.append(f"request {index}: {exc!r}")
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                    continue
                with lock:
                    if response.status != 200:
                        errors.append(
                            f"request {index}: HTTP {response.status} "
                            f"{data[:120]!r}"
                        )
                    else:
                        latencies.append(elapsed_ms)
                        if response.getheader("X-Cache") == "hit":
                            cache_hits += 1
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, daemon=True)
        for _ in range(min(concurrency, len(payloads)))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    ordered = sorted(latencies)
    return {
        "requests_ok": len(latencies),
        "errors": errors,
        "cache_hits": cache_hits,
        "wall_s": round(wall_s, 6),
        "throughput_rps": (
            round(len(latencies) / wall_s, 2) if wall_s > 0 else None
        ),
        "latency_ms": {
            "p50": round(_percentile(ordered, 0.50), 4) if ordered else None,
            "p95": round(_percentile(ordered, 0.95), 4) if ordered else None,
            "p99": round(_percentile(ordered, 0.99), 4) if ordered else None,
            "mean": (
                round(sum(ordered) / len(ordered), 4) if ordered else None
            ),
        },
    }


def spawn_server(extra_args: List[str], boot_timeout: float) -> Tuple[
    subprocess.Popen, str, int
]:
    """Boot ``python -m repro.serve --port 0``; returns (proc, host, port)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    assert process.stdout is not None
    deadline = time.monotonic() + boot_timeout
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = _LISTEN_RE.search(line)
        if match:
            return process, match.group(1), int(match.group(2))
    process.kill()
    stderr = process.stderr.read() if process.stderr else ""
    raise RuntimeError(
        f"server did not print a listening line (last: {line!r}; "
        f"stderr: {stderr[:500]!r})"
    )


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    server_args: List[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, server_args = argv[:split], argv[split + 1 :]
    parser = argparse.ArgumentParser(
        description="Load-test usfq-serve; JSON report on stdout."
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", help="http://host:port of a running server")
    target.add_argument(
        "--spawn",
        action="store_true",
        help="boot python -m repro.serve on an ephemeral port "
        "(server flags go after --)",
    )
    parser.add_argument("--concurrency", type=int, default=64)
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--passes", type=int, default=1,
                        help="repeat the request set (pass 2+ hits the cache)")
    parser.add_argument("--bits", type=int, default=5)
    parser.add_argument("--length", type=int, default=8)
    parser.add_argument("--bipolar", action="store_true")
    parser.add_argument("--seed", type=int, default=20220711)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--boot-timeout", type=float, default=60.0)
    parser.add_argument("--label", default=None,
                        help="free-form tag copied into the report")
    args = parser.parse_args(argv)

    payloads = build_requests(
        args.requests, args.bits, args.length, args.bipolar, args.seed
    )
    process = None
    if args.spawn:
        process, host, port = spawn_server(server_args, args.boot_timeout)
    else:
        match = re.match(r"https?://([^:/]+):(\d+)", args.url)
        if not match:
            parser.error(f"cannot parse --url {args.url!r}")
        host, port = match.group(1), int(match.group(2))

    report: Dict[str, Any] = {
        "label": args.label,
        "workload": {
            "op": "dpu.dot",
            "bits": args.bits,
            "length": args.length,
            "bipolar": args.bipolar,
            "requests": args.requests,
            "concurrency": args.concurrency,
            "seed": args.seed,
        },
        "server_args": server_args if args.spawn else None,
        "passes": [],
    }
    exit_code = 0
    try:
        for index in range(args.passes):
            result = run_pass(
                host, port, payloads, args.concurrency, args.timeout
            )
            result["pass"] = index + 1
            report["passes"].append(result)
            if result["errors"] or result["requests_ok"] != args.requests:
                exit_code = 1
    finally:
        if process is not None:
            process.send_signal(signal.SIGTERM)
            try:
                drained = process.wait(timeout=30) == 0
            except subprocess.TimeoutExpired:
                process.kill()
                drained = False
            report["server_drained_cleanly"] = drained
            if not drained:
                exit_code = 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
