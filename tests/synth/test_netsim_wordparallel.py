"""Word-parallel FF netlist simulation must equal the per-cycle oracle.

:func:`simulate_ff_netlist` derives the trajectory at the STG level and
evaluates every net over the whole trace as packed words;
:func:`tests.reference_sim.simulate_ff_netlist_reference` is the
per-cycle oracle.  For random machines and stimulus of assorted lengths
(including the word-packing edge cases 0/1/2 cycles and lengths around
and beyond typical chunk sizes) every observable — output stream, state
stream, per-net toggle counts and flip-flop toggles — must agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import generate_fsm
from repro.fsm.simulate import random_stimulus
from repro.synth.ff_synth import synthesize_ff
from repro.synth.netsim import simulate_ff_netlist
from tests.reference_sim import simulate_ff_netlist_reference
from tests.romfsm.test_equivalence_properties import _make_spec, spec_strategy

SETTINGS = settings(max_examples=15, deadline=None)


def assert_traces_equal(fast, ref):
    assert fast.num_cycles == ref.num_cycles
    assert fast.output_stream == ref.output_stream
    assert fast.state_stream == ref.state_stream
    assert fast.ff_output_toggles == ref.ff_output_toggles
    assert fast.net_toggles == ref.net_toggles


@given(spec=spec_strategy(), seed=st.integers(0, 999),
       cycles=st.integers(0, 200))
@SETTINGS
def test_matches_reference_on_random_fsms(spec, seed, cycles):
    fsm = generate_fsm(spec)
    impl = synthesize_ff(fsm)
    stim = random_stimulus(fsm.num_inputs, cycles, seed=seed)
    assert_traces_equal(
        simulate_ff_netlist(impl, stim),
        simulate_ff_netlist_reference(impl, stim),
    )


@pytest.mark.parametrize("cycles", [0, 1, 2, 3, 17, 64, 65, 200])
@pytest.mark.parametrize("encoding", ["binary", "one-hot"])
def test_matches_reference_across_word_widths(cycles, encoding):
    fsm = generate_fsm(_make_spec(7, 3, 2, 0, 2, 0.5, 0.3, False, seed=7))
    impl = synthesize_ff(fsm, encoding_style=encoding)
    stim = random_stimulus(fsm.num_inputs, cycles, seed=cycles)
    assert_traces_equal(
        simulate_ff_netlist(impl, stim),
        simulate_ff_netlist_reference(impl, stim),
    )
