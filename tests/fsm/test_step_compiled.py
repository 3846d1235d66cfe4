"""``FSM.step`` (compiled per-state rows) against a transition scan.

The reference is built from :meth:`FSM.lookup`, which scans the
state's transitions with ``Cube.contains_minterm``; ``step`` instead
matches ``input_bits & care_mask == value`` over rows compiled on its
first call.  The two must agree on every state and every input,
including the out-of-range vectors ``-1`` and ``1 << num_inputs``.
The second half checks that the rows never leak into cached bytes or
fingerprints and are rebuilt after ``add_transition``.
"""

import pickle

import pytest

from repro.bench.generator import GeneratorSpec, generate_fsm
from repro.fsm.machine import FSM, Transition
from repro.logic.cube import Cube
from repro.pipeline.artifact import fingerprint
from repro.pipeline.cache import _PICKLE_PROTOCOL


def reference_step(fsm: FSM, state: str, bits: int):
    t = fsm.lookup(state, bits)
    if t is None:
        return state, 0
    return t.dst, t.output_bits()


def assert_step_matches_reference(fsm: FSM) -> None:
    inputs = list(range(1 << fsm.num_inputs)) + [-1, 1 << fsm.num_inputs]
    for state in fsm.states:
        for bits in inputs:
            assert fsm.step(state, bits) == reference_step(fsm, state, bits), (
                fsm.name, state, bits)


def generated(seed: int, num_inputs: int, moore: bool = False) -> FSM:
    return generate_fsm(GeneratorSpec(
        name=f"g{seed}", num_states=3 + seed % 6, num_inputs=num_inputs,
        num_outputs=1 + seed % 4, care_inputs=(1, min(num_inputs, 4)),
        moore=moore, seed=seed,
    ))


@pytest.mark.parametrize("seed", range(12))
def test_generated_machines(seed):
    fsm = generated(seed, num_inputs=1 + seed % 7, moore=seed % 3 == 0)
    assert fsm.transitions
    assert_step_matches_reference(fsm)


def test_single_state():
    fsm = FSM("one", 2, 1, ["S"], "S")
    fsm.add("S", "1-", "S", "1")
    assert_step_matches_reference(fsm)
    assert fsm.step("S", 0b01) == ("S", 1)


def test_zero_inputs():
    fsm = FSM("zero", 0, 2, ["A", "B"], "A")
    fsm.add("A", "", "B", "10")
    fsm.add("B", "", "A", "01")
    assert_step_matches_reference(fsm)
    assert fsm.step("A", 0) == ("B", 0b01)
    assert fsm.step("A", 1) == ("A", 0)  # out of range: hold, 0


def test_unspecified_pairs_hold_with_zero_output():
    fsm = FSM("partial", 2, 1, ["A", "B"], "A")
    fsm.add("A", "11", "B", "1")
    assert_step_matches_reference(fsm)
    assert fsm.step("A", 0b00) == ("A", 0)
    assert fsm.step("B", 0b11) == ("B", 0)  # no transitions at all


def test_overlapping_cubes_first_match_wins():
    fsm = FSM("overlap", 2, 1, ["A", "B", "C"], "A")
    fsm.add("A", "1-", "B", "1")
    fsm.add("A", "11", "B", "1")  # benign: same behaviour
    fsm.add("B", "-1", "C", "1")
    fsm.add("B", "11", "A", "0")  # conflicting: never reached on 11
    assert fsm.check_deterministic()
    assert_step_matches_reference(fsm)
    assert fsm.step("B", 0b11) == ("C", 1)


def test_all_dont_care_outputs_resolve_to_zero():
    fsm = FSM("dc", 1, 3, ["A", "B"], "A")
    fsm.add("A", "-", "B", "---")
    fsm.add("B", "1", "A", "-1-")
    assert_step_matches_reference(fsm)
    assert fsm.step("A", 1) == ("B", 0)
    assert fsm.step("B", 1) == ("A", 0b010)


def test_empty_cube_never_matches():
    fsm = FSM("empty", 2, 1, ["A", "B"], "A")
    # Variable 1 admits neither value: the cube covers no minterm, yet
    # its care mask alone would read variable 1 as a don't-care.
    empty = Cube(2, 0b01, 0b00)
    assert empty.is_empty()
    fsm.add_transition(Transition("A", "B", empty, "1"))
    fsm.add("A", "-1", "A", "1")
    assert_step_matches_reference(fsm)
    assert fsm.step("A", 0b00) == ("A", 0)
    assert fsm.step("A", 0b10) == ("A", 1)


def test_unknown_state_holds():
    fsm = generated(1, num_inputs=3)
    assert fsm.step("nowhere", 0) == ("nowhere", 0)


class TestCacheSafety:
    def test_pickle_bytes_do_not_depend_on_stepping(self):
        fsm = generated(4, num_inputs=5)
        before = pickle.dumps(fsm, protocol=_PICKLE_PROTOCOL)
        for state in fsm.states:
            fsm.step(state, 3)
        after = pickle.dumps(fsm, protocol=_PICKLE_PROTOCOL)
        assert after == before
        assert b"_rows" not in after
        restored = pickle.loads(after)
        assert_step_matches_reference(restored)

    def test_fingerprint_does_not_depend_on_stepping(self):
        fsm = generated(5, num_inputs=4)
        before = fingerprint(fsm)
        fsm.step(fsm.reset_state, 1)
        assert fingerprint(fsm) == before

    def test_add_transition_invalidates_rows(self):
        fsm = FSM("grow", 1, 1, ["A", "B"], "A")
        fsm.add("A", "0", "A", "0")
        assert fsm.step("A", 1) == ("A", 0)
        fsm.add("A", "1", "B", "1")
        assert fsm.step("A", 1) == ("B", 1)
        assert_step_matches_reference(fsm)
