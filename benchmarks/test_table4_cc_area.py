"""E4 — regenerate paper Table 4: clock-control logic area overhead.

Paper claim: the enable logic costs a handful of LUTs/slices per
benchmark (their table ranges over roughly 2-15 LUTs; our synthesized
detectors measure 13-36 LUTs under the idle-cube budget, and the
envelope below is pinned to that, see EXPERIMENTS.md E4).
"""

from repro.flows.tables import table4

from .conftest import emit


def test_table4_regeneration(benchmark, paper_results):
    table = benchmark.pedantic(
        table4, args=(paper_results,), rounds=1, iterations=1
    )
    emit("Table 4 (regenerated)", table.text)

    for row in table.rows:
        name, luts, slices = row
        assert 10 <= luts <= 40, (
            f"{name}: {luts} LUTs outside the measured 13-36 envelope "
            f"(EXPERIMENTS.md E4)"
        )
        assert slices == -(-luts // 2)


def test_overhead_is_fraction_of_ff_baseline(paper_results):
    """The control logic is small next to the FF implementation it is
    being compared against."""
    for name, result in paper_results.items():
        cc_luts = result.rom_cc_impl.clock_control.num_luts
        assert cc_luts < 0.5 * result.ff_impl.num_luts, name


def test_enable_path_timing_penalty_bounded(paper_results):
    """Paper section 6: the clock frequency 'will be slower proportional
    to the delay introduced by the clock control logic' — but it must
    still support the experiment's 100 MHz."""
    for name, result in paper_results.items():
        assert result.rom_cc_timing.supports_mhz(100.0), name
