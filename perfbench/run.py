"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tables --seed 0 --seconds 20 --trace 0

Workloads: ``tables`` (the paper's Tables 1-4, cold then warm),
``service`` (open-loop evaluate traffic against an in-process server)
and ``tune`` (a cold mapper-tuner search, then warm re-searches).  Each
run is its own process.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` first runs the untraced benchmark as a child process for
reference, then repeats the run with every layer wrapped and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON result; the exit code is 0 only when every
correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

from layers import END_TO_END, FUNCTION_LAYERS, per_layer_metrics  # noqa: E402
from outcome import Context, Outcome  # noqa: E402
from quantiles import highest_supported, percentile  # noqa: E402
import sandbox  # noqa: E402
import speed  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0


def workload_class(name: str):
    if name == "tables":
        from wl_tables import TablesWorkload
        return TablesWorkload
    if name == "tune":
        from wl_tune import TuneWorkload
        return TuneWorkload
    from wl_service import ServiceWorkload
    return ServiceWorkload


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "service", "tune"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_command(args: argparse.Namespace, *extra: str) -> List[str]:
    return [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
        "--trace", "0", *extra,
    ]


def measure_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process until its workload is ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        child_command(args, "--setup-probe"), cwd=CHECKOUT,
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return ready


def teardown(workload, outcome: Optional[Outcome]) -> None:
    """Stop the workload and every helper process; count what is left."""
    try:
        if workload is not None:
            workload.teardown()
    finally:
        sandbox.stop_multiprocessing_helpers()
        left = sandbox.settle(os.getpid())
        if left:
            print(f"error: processes left after teardown: {left}", file=sys.stderr)
            sandbox.kill(left)
            sandbox.settle(os.getpid())
            if outcome is not None:
                outcome.errors += len(left)
                outcome.fail(f"{len(left)} process(es) left after teardown")


def run_workload(args, ctx: Context, tracer=None) -> Tuple[Outcome, Any]:
    """Set up, run and tear down one workload.

    With a ``tracer``, every layer is wrapped after set-up (so the
    imports are done) and the returned counts are its boundary counts.
    """
    workload = workload_class(args.workload)()
    outcome = counts = None
    try:
        workload.setup(ctx)
        if tracer is not None:
            counts = install_tracer(tracer)
        outcome = workload.run(ctx, args.seconds, tracer)
    finally:
        teardown(workload, outcome)
    return outcome, counts


def latency_metrics(outcome: Outcome, scaled: bool = True) -> Dict[str, float]:
    """Latencies in ms, scaled to the nominal machine unless ``scaled`` is False.

    ``warm_tail_ms`` is the highest percentile with at least 10 samples
    beyond it (``warm_tail_level``).  It is reported on the info line,
    not as a metric: on the service workload it moved by more than
    the bound between runs of the same code.
    """
    cold = warm = 1e3
    if scaled:
        cold *= speed.factor(outcome.calibration["cold"])
        if outcome.calibration["echo"]:
            warm *= speed.echo_factor(outcome.calibration["echo"])
        else:
            warm *= speed.factor(outcome.calibration["warm"])
    level = highest_supported(len(outcome.warm))
    return {
        "cold_ms": cold * median(outcome.cold),
        "warm_p50_ms": warm * median(outcome.warm),
        "warm_tail_level": level,
        "warm_tail_ms": warm * percentile(outcome.warm, level) if level else None,
    }


# -- tracing ------------------------------------------------------------


class TraceCounts:
    """Counts read at the wrapped boundaries (stage records, cache hits)."""

    def __init__(self):
        self.stage_s: Dict[str, float] = {}
        self.stage_hits: Dict[str, float] = {}
        self.cache_hits = 0
        self.caches: Dict[int, Any] = {}

    def on_pipeline_run(self, args: tuple, result) -> None:
        for record in result.report.records:
            name = record.stage
            self.stage_s[name] = self.stage_s.get(name, 0.0) + record.seconds
            self.stage_hits[name] = self.stage_hits.get(name, 0) + record.cache_hit

    def on_cache_get(self, args: tuple, result) -> None:
        self.caches.setdefault(id(args[0]), args[0])
        if result is not None:
            self.cache_hits += 1

    @property
    def io_errors(self) -> int:
        return sum(cache.stats.io_errors for cache in self.caches.values())


def install_tracer(tracer) -> TraceCounts:
    counts = TraceCounts()
    hooks = {
        "pipeline.run": counts.on_pipeline_run,
        "cache.get": counts.on_cache_get,
    }
    for name, targets in FUNCTION_LAYERS:
        for target in targets:
            tracer.install(name, target, on_result=hooks.get(name))
    return counts


def layer_metrics(tracer, counts: TraceCounts, outcome: Outcome) -> Dict[str, float]:
    values: Dict[str, float] = {}
    totals = tracer.totals(window=(outcome.start, outcome.end))
    for name, _targets in FUNCTION_LAYERS:
        entry = totals.get(name, {})
        for key in ("calls", "s", "self_s"):
            values[f"{name}.{key}"] = entry.get(key, 0)
    for stage, seconds in counts.stage_s.items():
        values[f"pipeline.{stage}.s"] = seconds
        values[f"pipeline.{stage}.hits"] = counts.stage_hits[stage]
    lookups = values["cache.get.calls"]
    values["cache.hit_ratio"] = counts.cache_hits / lookups if lookups else 0.0
    values["cache.io_errors"] = counts.io_errors
    if "in_flight_s" in outcome.info:
        parent_side = sum(
            values[f"service.{part}.s"]
            for part in ("read_request", "parse_job", "encode")
        )
        values["service.executor_rtt_s"] = outcome.info["in_flight_s"] - parent_side
    values["residual_s"] = sum(
        (end - start) - tracer.top_level_seconds(start, end)
        for start, end in outcome.intervals
    )
    values.update(outcome.layers)
    return values


def reference_run(args) -> Dict[str, Any]:
    """The untraced run of the same seed, in a child process."""
    proc = subprocess.run(
        child_command(args), cwd=CHECKOUT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"untraced reference run failed (exit {proc.returncode})")
    return json.loads(lines[-1])


# -- entry points -------------------------------------------------------


def emit(outcome: Outcome, metrics: Dict[str, Tuple[float, str]]) -> int:
    correct = not outcome.failures
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("info: " + json.dumps(outcome.info, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.ops,
        "failed": outcome.errors,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def plain(args, ctx: Context) -> int:
    setup = [measure_setup(args) for _ in range(SETUP_PROBES)]
    outcome, _ = run_workload(args, ctx)
    latency = latency_metrics(outcome)
    values = dict(latency)
    values["setup_s"] = median(setup) * speed.factor(
        outcome.calibration["cold"] + outcome.calibration["warm"]
    )
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome.info.update({
        "warm_tail": {k: latency[k] for k in ("warm_tail_level", "warm_tail_ms")},
        "unscaled": dict(latency_metrics(outcome, scaled=False), setup_s=median(setup)),
        "speed_factor": {
            kind: (speed.echo_factor if kind == "echo" else speed.factor)(samples)
            for kind, samples in outcome.calibration.items() if samples
        },
        "reference_ms": {
            kind: 1e3 * median(samples)
            for kind, samples in outcome.calibration.items() if samples
        },
        "setup_samples_s": setup,
        "cold_samples": len(outcome.cold),
        "warm_samples": len(outcome.warm),
    })
    return emit(outcome, {n: (values[n], unit) for n, unit, _b, _x in END_TO_END})


def traced(args, ctx: Context) -> int:
    from spans import Tracer

    reference = reference_run(args)
    tracer = Tracer()
    outcome, counts = run_workload(args, ctx, tracer)
    values = layer_metrics(tracer, counts, outcome)
    ref = {k: v["value"] for k, v in reference["metrics"].items()}
    latency = latency_metrics(outcome)
    values["trace.overhead_cold"] = latency["cold_ms"] / ref["cold_ms"] - 1.0
    values["trace.overhead_warm"] = latency["warm_p50_ms"] / ref["warm_p50_ms"] - 1.0
    outcome.info.update({"untraced": ref, "traced": latency,
                         "spans": len(tracer.spans)})
    if not reference["correct"]:
        outcome.fail("untraced reference run failed its checks")
    return emit(outcome, {
        name: (values.get(name, 0), unit)
        for name, unit, _better in per_layer_metrics()
    })


def probe(args, ctx: Context) -> int:
    workload = workload_class(args.workload)()
    try:
        workload.setup(ctx)
        print("ready", flush=True)
    finally:
        teardown(workload, None)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {CHECKOUT}; run from a full checkout",
              file=sys.stderr)
        return 2
    # A terminated run still tears down: SystemExit runs the finally blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sandbox.scrub_environment()
    sys.path.insert(0, str(CHECKOUT / "src"))
    sandbox.become_subreaper()
    dirs = sandbox.RunDirs(CHECKOUT)
    ctx = Context(seed=args.seed, checkout=CHECKOUT, dirs=dirs)
    try:
        if args.setup_probe:
            return probe(args, ctx)
        return traced(args, ctx) if args.trace else plain(args, ctx)
    except Exception:  # noqa: BLE001 - report, clean up, exit non-zero
        traceback.print_exc()
        return 1
    finally:
        dirs.cleanup()


if __name__ == "__main__":
    sys.exit(main())
