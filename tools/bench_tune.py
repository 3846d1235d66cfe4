#!/usr/bin/env python
"""Benchmark the tuner's search throughput; write BENCH_tune.json.

Per benchmark, four measured phases (one process, one report):

1. **cold** — full tuned search (dedupe + exact bound pruning) against
   a fresh artifact cache;
2. **warm** — the same search again: every fitness evaluation should be
   a ``tune-fitness`` cache hit;
3. **naive** — the no-cache / no-prune / no-dedupe reference: each grid
   candidate simulated individually (a sample, rate-extrapolated), the
   baseline the tuned path's candidates/sec is compared against;
4. **replay** — the frontier's best-power point re-evaluated from the
   stored artifact; must match bit-for-bit.

The headline number is ``speedup_vs_naive`` (warm tuned candidates/sec
over naive candidates/sec); CI asserts it stays ≥ 10×.

Usage::

    PYTHONPATH=src python tools/bench_tune.py
    PYTHONPATH=src python tools/bench_tune.py --benchmarks dk14 sand ex1 --jobs 2
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.synth import codegen  # noqa: E402
from repro.tune import (  # noqa: E402
    baseline_candidate,
    build_tune_pipeline,
    default_space,
    replay_point,
    tune_benchmark,
)
from repro.tune.fitness import tune_config  # noqa: E402
from repro.bench.suite import load_benchmark  # noqa: E402
from repro.fsm.assign import clear_strategy_cache  # noqa: E402
from repro.fsm.markov import clear_stationary_cache  # noqa: E402
from repro.romfsm.mapper import clear_aux_logic_cache  # noqa: E402


def tuned_round(name, cache_dir, jobs, cycles, seed):
    """One tuned search; returns (TuneResult, summary dict)."""
    result = tune_benchmark(
        name, jobs=jobs, cache=cache_dir, num_cycles=cycles, seed=seed,
    )
    s = result.stats
    return result, {
        "wall_s": s["wall_seconds"],
        "candidates_per_sec": s["candidates_per_sec"],
        "candidates": s["candidates"],
        "structures": s["structures"],
        "deduped": s["deduped"],
        "pruned": s["pruned"],
        "evaluated": s["evaluated"],
        "fitness_cache_hits": s["fitness_cache_hits"],
        "cache_hit_ratio": round(
            s["fitness_cache_hits"] / s["evaluated"], 4
        ) if s["evaluated"] else 0.0,
        "frontier_points": len(result.frontier),
        "best_power_mw": round(result.best_power.power_mw, 6),
        "baseline_power_mw": round(result.baseline.power_mw, 6),
        "best_power_saving_percent": round(
            result.best_power_saving_percent(), 3
        ),
    }


def naive_round(name, cycles, seed, limit):
    """The reference the tuner is judged against: every candidate
    simulated individually — no cache, no dedupe, no pruning, no
    in-process memos.  The sample *strides* across the full grid (the
    enumeration orders the encoding axis outermost, so a head-of-list
    sample would be all cheap binary-encoding candidates) and the
    stationary, strategy and auxiliary-logic memos are cleared before
    each candidate, the per-candidate state a tunerless loop would
    have.  ``limit`` bounds the bench's wall-clock; the rate is what
    matters and is per-candidate."""
    fsm = load_benchmark(name)
    space = default_space(fsm)
    candidates = [baseline_candidate()] + space.enumerate()
    if limit and limit < len(candidates):
        step = max(1, len(candidates) // limit)
        sample = candidates[::step][:limit]
    else:
        sample = candidates
    pipeline = build_tune_pipeline()
    start = time.perf_counter()
    for candidate in sample:
        clear_stationary_cache()
        clear_strategy_cache()
        clear_aux_logic_cache()
        config = tune_config(
            (name, None), candidate.config_overrides(),
            num_cycles=cycles, seed=seed,
        )
        pipeline.run(config, cache=None)
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 6),
        "sampled": len(sample),
        "grid": len(candidates),
        "candidates_per_sec": round(len(sample) / wall, 3) if wall else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", nargs="+",
                        default=["dk14", "sand", "ex1"])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=256)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--naive-limit", type=int, default=24,
                        help="naive-reference sample size per benchmark "
                             "(0 = the whole grid)")
    parser.add_argument("--out", default="BENCH_tune.json")
    args = parser.parse_args(argv)

    cache_dir = tempfile.mkdtemp(prefix="romfsm-bench-tune-")
    benchmarks = {}
    try:
        for name in args.benchmarks:
            entry = {}

            codegen.reset_stats()
            _, entry["cold"] = tuned_round(
                name, cache_dir, args.jobs, args.cycles, args.seed,
            )
            entry["cold"]["codegen"] = {
                "compiles": codegen.stats().compiles,
                "fallbacks": codegen.stats().fallbacks,
            }

            codegen.reset_stats()
            result, entry["warm"] = tuned_round(
                name, cache_dir, args.jobs, args.cycles, args.seed,
            )
            # A warm search re-simulates nothing: the compiled engine
            # should not even have been invoked.
            entry["warm"]["codegen"] = {
                "compiles": codegen.stats().compiles,
                "fallbacks": codegen.stats().fallbacks,
            }

            codegen.reset_stats()
            entry["naive"] = naive_round(
                name, args.cycles, args.seed, args.naive_limit,
            )

            naive_cps = entry["naive"]["candidates_per_sec"]
            entry["speedup_vs_naive"] = round(
                entry["warm"]["candidates_per_sec"] / naive_cps, 3
            ) if naive_cps else None
            entry["speedup_cold_vs_naive"] = round(
                entry["cold"]["candidates_per_sec"] / naive_cps, 3
            ) if naive_cps else None

            # Replayability: the stored best-power point re-evaluates
            # bit-identically from the frontier artifact's settings.
            fresh = replay_point(
                result.best_power, name, cache=cache_dir,
                **result.settings,
            )
            entry["replay_ok"] = fresh == result.best_power.fitness
            benchmarks[name] = entry
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    beat = [
        n for n, e in benchmarks.items()
        if e["cold"]["best_power_saving_percent"] > 0
    ]
    report = {
        "workload": {
            "benchmarks": args.benchmarks,
            "num_cycles": args.cycles,
            "seed": args.seed,
            "jobs": args.jobs,
            "naive_limit": args.naive_limit,
            "python": platform.python_version(),
        },
        "benchmarks": benchmarks,
        "summary": {
            "beats_fixed_heuristic": beat,
            "min_speedup_vs_naive": min(
                e["speedup_vs_naive"] for e in benchmarks.values()
            ),
            "all_replays_bit_identical": all(
                e["replay_ok"] for e in benchmarks.values()
            ),
        },
    }

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report["summary"], indent=2, sort_keys=True))
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
