"""Property-based invariants of the benchmark FSM generator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import GeneratorSpec, generate_fsm
from repro.fsm.stats import compute_stats
from repro.fsm.transform import reachable_states


def _make_spec(num_states, num_inputs, num_outputs, care_lo, care_hi,
               branch, self_loop, locality, moore, seed):
    lo = min(care_lo, care_hi, num_inputs)
    hi = min(max(care_lo, care_hi), num_inputs)
    return GeneratorSpec(
        name="genprop",
        num_states=num_states,
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        care_inputs=(lo, hi),
        branch_probability=branch,
        self_loop_bias=self_loop,
        column_locality=locality,
        moore=moore,
        seed=seed,
    )


spec_strategy = st.builds(
    _make_spec,
    num_states=st.integers(min_value=1, max_value=20),
    num_inputs=st.integers(min_value=0, max_value=6),
    num_outputs=st.integers(min_value=1, max_value=8),
    care_lo=st.integers(min_value=0, max_value=3),
    care_hi=st.integers(min_value=0, max_value=4),
    branch=st.floats(min_value=0.0, max_value=1.0),
    self_loop=st.floats(min_value=0.0, max_value=1.0),
    locality=st.floats(min_value=0.0, max_value=1.0),
    moore=st.booleans(),
    seed=st.integers(min_value=0, max_value=100_000),
)

SETTINGS = settings(max_examples=60, deadline=None)


@given(spec_strategy)
@SETTINGS
def test_generated_machines_are_well_formed(spec):
    fsm = generate_fsm(spec)
    assert fsm.is_deterministic()
    assert fsm.is_complete()
    assert fsm.num_states == spec.num_states
    assert fsm.num_inputs == spec.num_inputs
    assert fsm.num_outputs == spec.num_outputs


@given(spec_strategy)
@SETTINGS
def test_all_states_reachable(spec):
    fsm = generate_fsm(spec)
    assert reachable_states(fsm) == set(fsm.states)


@given(spec_strategy)
@SETTINGS
def test_no_single_state_traps(spec):
    fsm = generate_fsm(spec)
    if fsm.num_states == 1:
        return
    # A single-state trap is a state whose every edge loops back to it.
    for s in fsm.states:
        assert any(t.dst != s for t in fsm.transitions_from(s))


@given(spec_strategy)
@SETTINGS
def test_care_budget_respected(spec):
    fsm = generate_fsm(spec)
    stats = compute_stats(fsm)
    assert stats.max_state_inputs <= spec.care_inputs[1]


@given(spec_strategy)
@SETTINGS
def test_moore_flag_respected(spec):
    fsm = generate_fsm(spec)
    if spec.moore:
        assert fsm.is_moore()


@given(spec_strategy)
@SETTINGS
def test_generation_is_deterministic(spec):
    a = generate_fsm(spec)
    b = generate_fsm(spec)
    assert [(t.src, t.dst, str(t.inputs), t.outputs) for t in a.transitions] \
        == [(t.src, t.dst, str(t.inputs), t.outputs) for t in b.transitions]
