#!/usr/bin/env python
"""Load-test the compilation service; write BENCH_service.json.

Boots a throwaway `romfsm serve` subprocess (or targets a running one
with --host/--port/--no-spawn), fires a mix of identical and distinct
evaluate requests from a thread pool, and records throughput plus
latency percentiles — the seed numbers for the service perf trajectory.

Usage::

    PYTHONPATH=src python tools/bench_service.py
    PYTHONPATH=src python tools/bench_service.py --requests 500 --concurrency 32
    PYTHONPATH=src python tools/bench_service.py --no-spawn --port 8000
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.client import ServiceClient, ServiceError  # noqa: E402


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def wait_ready(client, deadline_s=30.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            if client.healthz()["status"] == "ok":
                return
        except ServiceError:
            time.sleep(0.1)
    raise SystemExit("server did not become healthy in time")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=18480)
    parser.add_argument("--no-spawn", action="store_true",
                        help="target an already-running server")
    parser.add_argument("--jobs", type=int, default=2,
                        help="server worker processes (spawned server)")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument("--distinct", type=int, default=4,
                        help="number of distinct request configs in the mix "
                             "(the rest coalesce or hit the artifact cache)")
    parser.add_argument("--cycles", type=int, default=500)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_service.json"))
    args = parser.parse_args(argv)

    proc = None
    cache_dir = None
    if not args.no_spawn:
        cache_dir = tempfile.mkdtemp(prefix="romfsm-bench-cache-")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.flows.cli", "serve",
                "--host", args.host, "--port", str(args.port),
                "--jobs", str(args.jobs), "--max-queue", "256",
                "--timeout", "120", "--cache-dir", cache_dir,
            ],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    client = ClientPool(args.host, args.port)
    try:
        wait_ready(client.get())

        # One cold round over the distinct configs: measures the uncached
        # pipeline and warms the artifact cache for the hot phase.
        cold_latencies = []
        for seed in range(args.distinct):
            start = time.perf_counter()
            client.get().evaluate(
                benchmark="dk14", num_cycles=args.cycles,
                frequencies_mhz=[100.0], seed=seed,
            )
            cold_latencies.append(time.perf_counter() - start)

        latencies = []
        errors = {"overloaded": 0, "timeout": 0, "other": 0}

        def fire(i):
            seed = i % args.distinct
            start = time.perf_counter()
            try:
                reply = client.get().evaluate(
                    benchmark="dk14", num_cycles=args.cycles,
                    frequencies_mhz=[100.0], seed=seed,
                )
            except ServiceError as exc:
                key = exc.reason if exc.reason in errors else "other"
                errors[key] += 1
                return None
            elapsed = time.perf_counter() - start
            return elapsed, bool(reply.get("coalesced"))

        wall_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
            outcomes = list(pool.map(fire, range(args.requests)))
        wall = time.perf_counter() - wall_start

        coalesced = sum(1 for o in outcomes if o and o[1])
        latencies = sorted(o[0] for o in outcomes if o)
        completed = len(latencies)

        metrics_text = client.get().metrics_text()
        runs = 0
        for line in metrics_text.splitlines():
            if line.startswith("romfsm_pipeline_runs_total"):
                runs += int(float(line.rsplit(" ", 1)[1]))

        report = {
            "workload": {
                "requests": args.requests,
                "concurrency": args.concurrency,
                "distinct_configs": args.distinct,
                "num_cycles": args.cycles,
                "server_jobs": args.jobs,
                "spawned": not args.no_spawn,
            },
            "cold": {
                "runs": len(cold_latencies),
                "mean_s": round(statistics.fmean(cold_latencies), 6)
                if cold_latencies else 0.0,
            },
            "hot": {
                "completed": completed,
                "rejected": errors,
                "coalesced": coalesced,
                "pipeline_runs_total": runs,
                "wall_s": round(wall, 6),
                "throughput_rps": round(completed / wall, 3) if wall else 0.0,
                "latency_s": {
                    "p50": round(percentile(latencies, 0.50), 6),
                    "p95": round(percentile(latencies, 0.95), 6),
                    "p99": round(percentile(latencies, 0.99), 6),
                    "max": round(latencies[-1], 6) if latencies else 0.0,
                },
            },
        }
        out = Path(args.out)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {out}", file=sys.stderr)
        return 0
    finally:
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()


class ClientPool:
    """One ServiceClient per thread is unnecessary (clients are
    stateless one-connection-per-call), so share a single instance."""

    def __init__(self, host, port):
        self._client = ServiceClient(host=host, port=port, timeout_s=300.0)

    def get(self) -> ServiceClient:
        return self._client


if __name__ == "__main__":
    sys.exit(main())
