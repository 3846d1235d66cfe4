"""Workload ``tables``: the paper's Tables 1-4, cold then warm.

One cold pass regenerates all four tables into an empty artifact cache
(ff-synth and the 2000-cycle simulations do most of the work, every
stage result is written to the cache); warm passes then regenerate
them from the filled cache after dropping the in-process memo, so they
measure cache reads.  ``jobs=1`` keeps every layer in this process,
where the traced run can see it.
"""

from __future__ import annotations

import time

from outcome import Context, InProcessCounters, Outcome, repeat_warm, time_cold
from quantiles import min_samples

NUM_CYCLES = 2000  # the paper campaign (run_all's default)
EVALUATIONS_PER_PASS = 9


class TablesWorkload:
    name = "tables"

    def setup(self, ctx: Context) -> None:
        from repro.flows import tables

        self.tables = tables

    def teardown(self) -> None:
        pass

    def run(self, ctx: Context, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        cache_dir = str(ctx.dirs.new_dir("tables-cache-"))
        seed = ctx.program_seed
        counters = InProcessCounters()
        t = self.tables

        def regenerate() -> str:
            out.ops += EVALUATIONS_PER_PASS
            t.clear_results_memo()
            results = t.run_all(
                num_cycles=NUM_CYCLES, seed=seed, jobs=1, cache=cache_dir
            )
            return "".join(
                table(results).text + "\n"
                for table in (t.table1, t.table2, t.table3, t.table4)
            )

        # The traced run wraps the cache methods itself; probing inside
        # them would charge the probe to the layers.
        probed = () if tracer else counters.probe_methods
        start = time.perf_counter()
        cold_text = time_cold(regenerate, out, probed)

        def check(text: str) -> None:
            if text != cold_text:
                out.fail("warm tables differ from the cold pass")

        repeat_warm(regenerate, check, out, start, seconds, min_samples(90))

        if ctx.seed == 0:
            expected = "".join(
                (ctx.checkout / "results" / f"table{i}.txt").read_text()
                for i in range(1, 5)
            )
            if cold_text != expected:
                out.fail("tables at seed 0 differ from results/table{1..4}.txt")
        counters.record(out, cache_dir)
        return out
