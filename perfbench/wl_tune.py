"""Workload ``tune``: a cold mapper-tuner search, then warm re-searches.

The tuner uses the same layers as the tables differently: many ROM
mappings and many short ROM replays (one compile per mapping rather
than per netlist), many small sidecar cache entries, and almost no
ff-synth (the baseline only).  dk14, sand and ex1 span a small dense
machine and two don't-care-rich wide ones.  Warm re-searches are
answered from the sidecar memos.
"""

from __future__ import annotations

import hashlib
import time

from outcome import Context, InProcessCounters, Outcome, repeat_warm, time_cold
from quantiles import min_samples

BENCHMARKS = ("dk14", "sand", "ex1")
NUM_CYCLES = 256
# sha256 of the three canonical frontiers (joined by newlines) at seed 0.
SEED0_DIGEST = "a99f12f0dec598891eb98004ffe65c54dc6141569617121e53d1144d9307035c"


def digest(canonical) -> str:
    return hashlib.sha256("\n".join(canonical).encode("utf-8")).hexdigest()


class TuneWorkload:
    name = "tune"

    def setup(self, ctx: Context) -> None:
        from repro import tune

        self.tune = tune

    def teardown(self) -> None:
        pass

    def run(self, ctx: Context, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        cache_dir = str(ctx.dirs.new_dir("tune-cache-"))
        seed = ctx.program_seed
        counters = InProcessCounters()

        def search():
            results = [
                self.tune.tune_benchmark(
                    name, jobs=1, cache=cache_dir, num_cycles=NUM_CYCLES,
                    seed=seed,
                )
                for name in BENCHMARKS
            ]
            out.ops += sum(r.stats["candidates"] for r in results)
            return results

        probed = () if tracer else counters.probe_methods
        start = time.perf_counter()
        cold = time_cold(search, out, probed)
        canonical = [r.canonical_json() for r in cold]

        def check(results) -> None:
            if [r.canonical_json() for r in results] != canonical:
                out.fail("warm search frontier differs from the cold search")

        repeat_warm(search, check, out, start, seconds, min_samples(90))

        out.info["frontier_sha256"] = digest(canonical)
        if ctx.seed == 0 and out.info["frontier_sha256"] != SEED0_DIGEST:
            out.fail("seed-0 frontiers differ from the recorded digest")
        for key in ("candidates", "deduped", "pruned", "evaluated",
                    "structures", "fitness_cache_hits"):
            out.layers[f"tune.{key}"] = sum(r.stats[key] for r in cold)
        counters.record(out, cache_dir)
        return out
