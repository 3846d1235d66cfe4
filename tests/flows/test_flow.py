"""Integration tests for the end-to-end evaluation flow."""

import pytest

from repro.flows.flow import (
    PAPER_FREQUENCIES_MHZ,
    evaluate_benchmark,
    implement_rom,
    moore_output_mode,
)
from repro.bench.suite import load_benchmark
from repro.fsm.kiss import parse_kiss
from repro.synth.ff_synth import synthesize_ff

DETECTOR = """
.i 1
.o 1
.r A
0 A B 0
1 A A 0
0 B B 0
1 B C 0
0 C D 0
1 C A 0
0 D B 0
1 D C 1
"""


@pytest.fixture(scope="module")
def result():
    return evaluate_benchmark("dk14", num_cycles=600, seed=5)


class TestEvaluateBenchmark:
    def test_accepts_name_or_fsm(self):
        by_name = evaluate_benchmark("dk14", num_cycles=100,
                                     with_clock_control=False)
        by_fsm = evaluate_benchmark(load_benchmark("dk14"), num_cycles=100,
                                    with_clock_control=False)
        assert by_name.ff_impl.num_luts == by_fsm.ff_impl.num_luts

    def test_power_reported_at_paper_frequencies(self, result):
        for f in PAPER_FREQUENCIES_MHZ:
            key = f"{f:g}"
            assert result.ff_power[key].total_mw > 0
            assert result.rom_power[key].total_mw > 0
            assert result.rom_cc_power[key].total_mw > 0

    def test_power_scales_linearly_with_frequency(self, result):
        p50 = result.ff_power["50"].total_mw
        p100 = result.ff_power["100"].total_mw
        assert p100 == pytest.approx(2 * p50, rel=1e-6)

    def test_rom_saves_power(self, result):
        assert result.saving_percent(100.0) > 0

    def test_clock_control_beats_plain_rom_at_half_idle(self, result):
        assert result.cc_saving_percent(100.0) > result.saving_percent(100.0)

    def test_achieved_idle_near_target(self, result):
        assert result.achieved_idle_fraction == pytest.approx(0.5, abs=0.12)

    def test_timing_reports_present(self, result):
        assert result.ff_timing.fmax_mhz > 0
        assert result.rom_timing.fmax_mhz > 0
        assert result.rom_cc_timing is not None
        # Clock control can only slow the ROM design down.
        assert result.rom_cc_timing.fmax_mhz <= result.rom_timing.fmax_mhz

    def test_rom_timing_supports_paper_frequency(self, result):
        assert result.rom_timing.supports_mhz(100.0)

    def test_custom_fsm_through_flow(self):
        fsm = parse_kiss(DETECTOR, "det")
        result = evaluate_benchmark(fsm, num_cycles=300)
        assert result.fsm is fsm
        assert result.rom_impl.num_brams == 1

    def test_without_clock_control(self):
        result = evaluate_benchmark("dk14", num_cycles=100,
                                    with_clock_control=False)
        assert result.rom_cc_impl is None
        assert result.rom_cc_power == {}

    def test_verification_runs_by_default(self):
        # The flow raises if any implementation diverges; reaching here
        # with verify=True (default) is the assertion.
        evaluate_benchmark("dk14", num_cycles=60)


class TestHelpers:
    def test_moore_output_mode_for_prep4(self):
        assert moore_output_mode(load_benchmark("prep4")) == "external"
        assert moore_output_mode(load_benchmark("dk14")) == "auto"

    def test_implement_rom_uses_benchmark_policy(self):
        impl = implement_rom(load_benchmark("prep4"))
        assert impl.moore_output_mapping is not None

    def test_implement_ff_encoding_choice(self):
        impl = synthesize_ff(load_benchmark("dk14"), encoding_style="one-hot")
        assert impl.encoding.style == "one-hot"
