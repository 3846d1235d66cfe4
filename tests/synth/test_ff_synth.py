"""Unit tests for the FF/LUT baseline synthesis flow."""

import pytest

from repro.bench.suite import load_benchmark
from repro.fsm.encoding import binary_encoding, one_hot_encoding
from repro.fsm.kiss import parse_kiss
from repro.fsm.machine import FSM
from repro.fsm.simulate import FsmSimulator, random_stimulus
from repro.logic.cube import Cube
from repro.synth.ff_synth import (
    _lift_input_cube,
    _state_cube,
    _unused_code_dc,
    synthesize_ff,
)
from repro.synth.netsim import simulate_ff_netlist

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


def check_against_reference(fsm, impl, cycles=400, seed=7):
    stim = random_stimulus(fsm.num_inputs, cycles, seed=seed)
    ref = FsmSimulator(fsm).run(stim)
    trace = simulate_ff_netlist(impl, stim)
    assert trace.output_stream == ref.outputs
    assert trace.state_stream == ref.states


class TestEquivalence:
    @pytest.mark.parametrize(
        "style", ["binary", "gray", "one-hot", "johnson"]
    )
    def test_detector_equivalent_under_all_encodings(self, style):
        fsm = parse_kiss(DETECTOR, "det")
        impl = synthesize_ff(fsm, encoding_style=style)
        check_against_reference(fsm, impl)

    def test_incomplete_machine_hold_semantics(self):
        fsm = FSM("inc", 2, 2, ["A", "B"], "A")
        fsm.add("A", "11", "B", "10")
        fsm.add("B", "00", "A", "01")
        impl = synthesize_ff(fsm)
        check_against_reference(fsm, impl)

    def test_dont_care_outputs_resolve_to_zero(self):
        fsm = FSM("dc", 1, 2, ["A", "B"], "A")
        fsm.add("A", "-", "B", "1-")
        fsm.add("B", "-", "A", "-1")
        impl = synthesize_ff(fsm)
        check_against_reference(fsm, impl)

    def test_benchmark_equivalence(self):
        fsm = load_benchmark("dk14")
        impl = synthesize_ff(fsm)
        check_against_reference(fsm, impl, cycles=300)

    def test_unminimized_flow_also_equivalent(self):
        fsm = parse_kiss(DETECTOR, "det")
        impl = synthesize_ff(fsm, minimize=False)
        check_against_reference(fsm, impl)

    def test_nondeterministic_machine_rejected(self):
        fsm = FSM("bad", 1, 1, ["A", "B"], "A")
        fsm.add("A", "-", "A", "0")
        fsm.add("A", "1", "B", "1")
        with pytest.raises(Exception):
            synthesize_ff(fsm)


class TestResources:
    def test_ff_count_follows_encoding(self):
        fsm = parse_kiss(DETECTOR, "det")
        assert synthesize_ff(fsm, "binary").num_ffs == 2
        assert synthesize_ff(fsm, "one-hot").num_ffs == 4

    def test_utilization_shape(self):
        impl = synthesize_ff(parse_kiss(DETECTOR, "det"))
        util = impl.utilization
        assert util.brams == 0
        assert util.luts == impl.num_luts
        assert util.ffs == impl.num_ffs
        assert util.slices >= 1

    def test_minimization_helps_on_dont_care_rich_machine(self):
        # keyb's cubes overlap heavily after completion; espresso should
        # clearly shrink the mapped area (dense machines like dk14 can
        # tie within mapping noise, so they make no good oracle here).
        fsm = load_benchmark("keyb")
        minimized = synthesize_ff(fsm, minimize=True)
        raw = synthesize_ff(fsm, minimize=False)
        assert minimized.num_luts < raw.num_luts

    def test_run_helper_matches_reference(self):
        fsm = parse_kiss(DETECTOR, "det")
        impl = synthesize_ff(fsm)
        stim = random_stimulus(1, 100, seed=1)
        trace = simulate_ff_netlist(impl, stim)
        ref = FsmSimulator(fsm).run(stim)
        assert trace.output_stream == ref.outputs
        assert trace.state_stream == ref.states


class TestInternals:
    def test_state_cube_binds_full_code(self):
        fsm = parse_kiss(DETECTOR, "det")
        enc = binary_encoding(fsm)
        cube = _state_cube(enc, "C", 3, 2)
        code = enc.encode("C")
        for b in range(2):
            assert cube.literal(b) == str((code >> b) & 1)
        assert cube.literal(2) == "-"

    def test_state_cube_one_hot_binds_only_hot_bit(self):
        fsm = parse_kiss(DETECTOR, "det")
        enc = one_hot_encoding(fsm)
        cube = _state_cube(enc, "B", enc.width + 1, enc.width)
        assert cube.num_literals() == 1

    def test_lift_input_cube(self):
        lifted = _lift_input_cube(Cube.from_string("1-0"), 5, 2)
        assert str(lifted) == "--1-0"

    def test_unused_code_dc_counts(self):
        fsm = FSM("five", 1, 1, [f"s{i}" for i in range(5)], "s0")
        for s in fsm.states:
            fsm.add(s, "-", "s0", "0")
        enc = binary_encoding(fsm)
        dc = _unused_code_dc(enc, enc.width + 1)
        assert len(dc) == 3  # 8 codes - 5 states

    def test_unused_code_dc_empty_for_one_hot(self):
        fsm = parse_kiss(DETECTOR, "det")
        enc = one_hot_encoding(fsm)
        assert _unused_code_dc(enc, enc.width + 1) == []
