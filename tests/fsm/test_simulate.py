"""Unit tests for FSM simulation and stimulus generation."""

import hashlib

import pytest

from repro.bench.suite import load_benchmark
from repro.fsm.kiss import parse_kiss
from repro.fsm.machine import FSM
from repro.fsm.simulate import (
    FsmSimulator,
    idle_biased_stimulus,
    random_stimulus,
    toggle_counts,
)

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


class TestSimulator:
    def test_detects_0101_sequence(self):
        fsm = parse_kiss(DETECTOR)
        trace = FsmSimulator(fsm).run([0, 1, 0, 1, 0, 1])
        # Overlapping detection: hits at the 4th and 6th cycles.
        assert trace.outputs == [0, 0, 0, 1, 0, 1]

    def test_trace_shapes(self):
        fsm = parse_kiss(DETECTOR)
        trace = FsmSimulator(fsm).run([0, 1, 1])
        assert trace.num_cycles == 3
        assert len(trace.states) == 4  # includes final state
        assert trace.states[0] == "A"

    def test_reset_restores_initial_state(self):
        fsm = parse_kiss(DETECTOR)
        sim = FsmSimulator(fsm)
        sim.run([1, 1, 0])
        sim.reset()
        assert sim.state == "A"

    def test_out_of_range_input_rejected(self):
        fsm = parse_kiss(DETECTOR)
        with pytest.raises(ValueError):
            FsmSimulator(fsm).run([2])

    def test_hold_semantics_on_unspecified(self):
        fsm = FSM("h", 1, 1, ["A"], "A")
        fsm.add("A", "1", "A", "1")
        trace = FsmSimulator(fsm).run([0, 0, 1])
        assert trace.outputs == [0, 0, 1]
        assert trace.states == ["A"] * 4

    def test_bit_columns(self):
        fsm = parse_kiss(DETECTOR)
        trace = FsmSimulator(fsm).run([0, 1, 0])
        assert trace.input_bit_column(0) == [0, 1, 0]
        assert trace.output_bit_column(0) == trace.outputs


class TestIdleAccounting:
    def test_idle_cycles_on_hold_machine(self):
        fsm = FSM("h", 1, 1, ["A", "B"], "A")
        fsm.add("A", "0", "A", "0")
        fsm.add("A", "1", "B", "1")
        fsm.add("B", "-", "A", "0")
        trace = FsmSimulator(fsm).run([0, 0, 0, 1])
        # First three cycles hold state+output; the fourth transitions.
        assert trace.idle_cycles() == 3
        assert trace.idle_fraction() == pytest.approx(0.75)

    def test_output_change_breaks_idleness(self):
        fsm = FSM("m", 1, 1, ["A"], "A")
        fsm.add("A", "0", "A", "0")
        fsm.add("A", "1", "A", "1")  # self loop but output flips
        trace = FsmSimulator(fsm).run([0, 1, 1, 0])
        # Cycle 0 idle (zero output), cycle 1 output flips (not idle),
        # cycle 2 repeats 1 (idle), cycle 3 flips back (not idle).
        assert trace.idle_cycles() == 2


class TestStimulus:
    def test_random_stimulus_deterministic(self):
        assert random_stimulus(4, 50, seed=9) == random_stimulus(4, 50, seed=9)
        assert random_stimulus(4, 50, seed=9) != random_stimulus(4, 50, seed=10)

    def test_random_stimulus_in_range(self):
        stim = random_stimulus(3, 200, seed=0)
        assert all(0 <= v < 8 for v in stim)
        assert len(stim) == 200

    def test_idle_bias_reaches_target(self):
        fsm = parse_kiss(DETECTOR)
        stim = idle_biased_stimulus(fsm, 1000, idle_fraction=0.5, seed=1)
        achieved = FsmSimulator(fsm).run(stim).idle_fraction()
        assert abs(achieved - 0.5) < 0.08

    def test_idle_bias_zero_fraction(self):
        fsm = parse_kiss(DETECTOR)
        stim = idle_biased_stimulus(fsm, 500, idle_fraction=0.0, seed=1)
        achieved = FsmSimulator(fsm).run(stim).idle_fraction()
        assert achieved < 0.1

    def test_idle_bias_high_fraction(self):
        fsm = parse_kiss(DETECTOR)
        stim = idle_biased_stimulus(fsm, 1000, idle_fraction=0.8, seed=1)
        achieved = FsmSimulator(fsm).run(stim).idle_fraction()
        assert achieved > 0.6

    def test_idle_fraction_validated(self):
        fsm = parse_kiss(DETECTOR)
        with pytest.raises(ValueError):
            idle_biased_stimulus(fsm, 10, idle_fraction=1.5)

    def test_idle_bias_deterministic(self):
        fsm = parse_kiss(DETECTOR)
        a = idle_biased_stimulus(fsm, 100, seed=3)
        b = idle_biased_stimulus(fsm, 100, seed=3)
        assert a == b


class TestPinnedStreams:
    """Seeded streams are part of every published number: pin them."""

    def test_random_stimulus_stream(self):
        assert random_stimulus(3, 32, seed=3) == [
            3, 2, 5, 7, 1, 0, 7, 4, 3, 3, 7, 7, 6, 2, 3, 2,
            6, 0, 1, 2, 0, 4, 0, 4, 7, 6, 6, 6, 7, 2, 5, 1,
        ]

    def test_idle_biased_stimulus_stream(self):
        fsm = load_benchmark("dk14")
        assert idle_biased_stimulus(fsm, 32, 0.5, seed=3) == [
            3, 0, 0, 0, 0, 6, 1, 6, 7, 1, 1, 0, 1, 3, 7, 5,
            1, 6, 7, 0, 4, 0, 0, 0, 0, 1, 7, 0, 1, 4, 1, 0,
        ]

    @pytest.mark.parametrize("cycles, max_probes, digest", [
        (2000, 96, "7444526d81642d24a306b0ab9ed314b446c491d1f8d823bc51340af2b4075184"),
        # Few probes: exercises the self-loop fallback and the last-resort draw.
        (500, 4, "465558fd43eae4b4de27b69e459dfb69c8cb351c6eda79e71e6096ca9fdebc1c"),
    ])
    def test_idle_biased_stream_digest(self, cycles, max_probes, digest):
        stim = idle_biased_stimulus(
            load_benchmark("keyb"), cycles, 0.5, seed=11, max_probes=max_probes
        )
        assert hashlib.sha256(repr(stim).encode()).hexdigest() == digest


class TestToggleCounts:
    def test_counts_transitions(self):
        assert toggle_counts([0, 1, 1, 0, 1]) == 3

    def test_constant_column(self):
        assert toggle_counts([1, 1, 1]) == 0

    def test_empty_column(self):
        assert toggle_counts([]) == 0
