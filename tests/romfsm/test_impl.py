"""Unit tests for the ROM-FSM implementation object (simulation, ECO)."""

import pytest

from repro.fsm.kiss import parse_kiss
from repro.fsm.machine import FSM, FsmError
from repro.fsm.simulate import FsmSimulator, random_stimulus
from repro.romfsm.mapper import map_fsm_to_rom
from tests.reference_sim import step

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


@pytest.fixture
def detector():
    return parse_kiss(DETECTOR, "seq0101")


class TestRun:
    def test_trace_shapes(self, detector):
        impl = map_fsm_to_rom(detector)
        trace = impl.run([0, 1, 0])
        assert trace.num_cycles == 3
        assert len(trace.state_stream) == 4
        assert trace.enable_duty == 1.0

    def test_toggle_accounting(self, detector):
        impl = map_fsm_to_rom(detector)
        trace = impl.run([0, 1, 0, 1, 0, 1])
        # Input pin toggles every cycle.
        assert trace.signal_toggles["in0"] == 5
        # Address includes the input bit, so it toggles at least as much.
        assert trace.signal_toggles.get("addr0", 0) == 5
        # The detector walks A->B->C->..., so state q bits move.
        q_toggles = sum(
            v for k, v in trace.signal_toggles.items() if k.startswith("q")
        )
        assert q_toggles > 0

    def test_enable_never_toggles_without_clock_control(self, detector):
        impl = map_fsm_to_rom(detector)
        trace = impl.run(random_stimulus(1, 100, seed=0))
        assert trace.signal_toggles.get("en0", 0) == 0
        assert trace.enabled_edges == 100

    def test_out_of_range_input_rejected(self, detector):
        impl = map_fsm_to_rom(detector)
        with pytest.raises(ValueError):
            impl.run([2])

    def test_step_matches_run(self, detector):
        impl = map_fsm_to_rom(detector)
        state, latched = 0, 0
        outputs = []
        for bit in [0, 1, 0, 1]:
            state, latched, out, en = step(impl, state, latched, bit)
            assert en == 1
            outputs.append(out)
        assert outputs == FsmSimulator(detector).run([0, 1, 0, 1]).outputs

    def test_contents_length_validated(self, detector):
        impl = map_fsm_to_rom(detector)
        from repro.romfsm.impl import RomFsmImplementation

        with pytest.raises(FsmError):
            RomFsmImplementation(
                fsm=impl.fsm,
                encoding=impl.encoding,
                layout=impl.layout,
                config=impl.config,
                contents=impl.contents[:-1],
            )


class TestUtilization:
    def test_bram_only_for_simple_fsm(self, detector):
        impl = map_fsm_to_rom(detector)
        util = impl.utilization
        assert util.brams == 1
        assert util.luts == 0
        assert util.ffs == 0  # the BRAM output latch is the state register

    def test_lut_total_sums_components(self, detector):
        impl = map_fsm_to_rom(detector, clock_control=True,
                              force_compaction=True)
        expected = impl.clock_control.num_luts
        if impl.mux_mapping is not None:
            expected += impl.mux_mapping.num_luts
        assert impl.num_luts == expected


class TestEcoRewrite:
    def variant(self, detector):
        """Same interface/states, detects 0110 instead of 0101."""
        fsm = FSM("seq0110", 1, 1, ["A", "B", "C", "D"], "A")
        fsm.add("A", "0", "B", "0")
        fsm.add("A", "1", "A", "0")
        fsm.add("B", "0", "B", "0")
        fsm.add("B", "1", "C", "0")
        fsm.add("C", "0", "B", "0")
        fsm.add("C", "1", "D", "0")
        fsm.add("D", "0", "B", "1")   # ...0110 seen
        fsm.add("D", "1", "A", "0")
        return fsm

    def test_rewrite_changes_behaviour_without_resynthesis(self, detector):
        impl = map_fsm_to_rom(detector)
        new_fsm = self.variant(detector)
        impl.rewrite_contents(new_fsm)
        stim = random_stimulus(1, 500, seed=9)
        ref = FsmSimulator(new_fsm).run(stim)
        trace = impl.run(stim)
        assert trace.output_stream == ref.outputs

    def test_rewrite_keeps_fabric_untouched(self, detector):
        impl = map_fsm_to_rom(detector)
        config_before = impl.config
        layout_before = impl.layout
        impl.rewrite_contents(self.variant(detector))
        assert impl.config == config_before
        assert impl.layout == layout_before

    def test_interface_change_rejected(self, detector):
        impl = map_fsm_to_rom(detector)
        other = FSM("wide", 2, 1, ["A", "B", "C", "D"], "A")
        other.add("A", "--", "A", "0")
        with pytest.raises(FsmError):
            impl.rewrite_contents(other)

    def test_state_set_change_rejected(self, detector):
        impl = map_fsm_to_rom(detector)
        other = FSM("extra", 1, 1, ["A", "B", "C", "D", "E"], "A")
        other.add("A", "-", "E", "0")
        other.add("E", "-", "A", "0")
        with pytest.raises(FsmError):
            impl.rewrite_contents(other)

    def test_reset_move_rejected(self, detector):
        impl = map_fsm_to_rom(detector)
        other = detector.copy()
        moved = FSM("m", 1, 1, other.states, "B", other.transitions)
        with pytest.raises(FsmError):
            impl.rewrite_contents(moved)

    def test_rewrite_with_compaction_subset_ok(self, detector):
        impl = map_fsm_to_rom(detector, force_compaction=True)
        new_fsm = self.variant(detector)
        impl.rewrite_contents(new_fsm)
        stim = random_stimulus(1, 300, seed=2)
        assert impl.run(stim).output_stream == \
            FsmSimulator(new_fsm).run(stim).outputs

    def test_rewrite_with_moore_external_rejected(self):
        fsm = FSM("mm", 1, 2, ["A", "B"], "A")
        fsm.add("A", "-", "B", "00")
        fsm.add("B", "-", "A", "11")
        impl = map_fsm_to_rom(fsm, moore_outputs="external")
        with pytest.raises(FsmError):
            impl.rewrite_contents(fsm.copy())

    def test_rewrite_with_clock_control_rejected(self, detector):
        impl = map_fsm_to_rom(detector, clock_control=True)
        with pytest.raises(FsmError):
            impl.rewrite_contents(self.variant(detector))
