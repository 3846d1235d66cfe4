"""Word-parallel ROM-FSM simulation must equal the per-cycle oracle.

:meth:`RomFsmImplementation.run` guesses the trajectory from the STG,
evaluates the mux/Moore/enable mappings as packed words and replays the
ROM against the guess; :func:`tests.reference_sim.run_reference` is
the per-cycle oracle.  Every observable — output and state streams,
top-level signal toggles, internal net toggles of all three auxiliary
mappings, and the mutable BRAM statistics (clock edges, enabled edges,
latched output word) — must agree for every mapper configuration: plain,
column-compacted, clock-controlled, Moore or Mealy output placement.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import generate_fsm
from repro.fsm.simulate import idle_biased_stimulus, random_stimulus
from repro.romfsm.mapper import map_fsm_to_rom
from tests.reference_sim import run_reference
from tests.romfsm.test_equivalence_properties import _make_spec, spec_strategy

SETTINGS = settings(max_examples=10, deadline=None)

CONFIGS = [
    dict(),
    dict(clock_control=True),
    dict(force_compaction=True),
    dict(clock_control=True, force_compaction=True),
    dict(moore_outputs="internal"),
    dict(moore_outputs="external", clock_control=True),
]


def assert_rom_traces_equal(fast, ref):
    assert fast.num_cycles == ref.num_cycles
    assert fast.output_stream == ref.output_stream
    assert fast.state_stream == ref.state_stream
    assert fast.signal_toggles == ref.signal_toggles
    assert fast.mux_toggles == ref.mux_toggles
    assert fast.moore_toggles == ref.moore_toggles
    assert fast.control_toggles == ref.control_toggles
    assert fast.enabled_edges == ref.enabled_edges


def run_both(fsm, stim, collect_nets=True, **mapper_kwargs):
    """Run fast path and oracle on *separate* instances (stats mutate)."""
    fast_impl = map_fsm_to_rom(fsm, **mapper_kwargs)
    ref_impl = map_fsm_to_rom(fsm, **mapper_kwargs)
    fast = fast_impl.run(stim, collect_nets=collect_nets)
    ref = run_reference(ref_impl, stim, collect_nets=collect_nets)
    assert_rom_traces_equal(fast, ref)
    assert fast_impl._rom.total_edges == ref_impl._rom.total_edges
    assert fast_impl._rom.enabled_edges == ref_impl._rom.enabled_edges
    assert fast_impl._rom.output == ref_impl._rom.output


@given(spec=spec_strategy(), seed=st.integers(0, 999),
       cycles=st.integers(0, 150))
@SETTINGS
def test_matches_reference_on_random_fsms(spec, seed, cycles):
    fsm = generate_fsm(spec)
    stim = random_stimulus(fsm.num_inputs, cycles, seed=seed)
    run_both(fsm, stim, clock_control=True)


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: "-".join(sorted(c)) or "plain")
@pytest.mark.parametrize("moore", [False, True])
def test_matches_reference_across_configs(config, moore):
    if config.get("moore_outputs") == "external" and not moore:
        pytest.skip("external output placement requires a Moore machine")
    fsm = generate_fsm(_make_spec(9, 3, 3, 0, 2, 0.5, 0.35, moore, seed=11))
    stim = random_stimulus(fsm.num_inputs, 120, seed=3)
    run_both(fsm, stim, **config)


@pytest.mark.parametrize("cycles", [0, 1, 2, 3, 17, 64, 65, 200])
def test_matches_reference_across_word_widths(cycles):
    fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.6, 0.4, False, seed=5))
    stim = random_stimulus(fsm.num_inputs, cycles, seed=cycles)
    run_both(fsm, stim, clock_control=True)


def test_matches_reference_on_idle_biased_stimulus():
    # Idle-heavy traces exercise the enable/hold path of the replay.
    fsm = generate_fsm(_make_spec(8, 3, 2, 0, 2, 0.5, 0.6, False, seed=23))
    stim = idle_biased_stimulus(fsm, 150, idle_fraction=0.6, seed=4)
    run_both(fsm, stim, clock_control=True)


def test_matches_reference_without_net_collection():
    fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.5, 0.3, False, seed=9))
    stim = random_stimulus(fsm.num_inputs, 90, seed=1)
    run_both(fsm, stim, collect_nets=False, clock_control=True)


def test_out_of_range_input_matches_reference_error():
    fsm = generate_fsm(_make_spec(5, 2, 2, 0, 2, 0.5, 0.3, False, seed=2))
    fast_impl = map_fsm_to_rom(fsm)
    ref_impl = map_fsm_to_rom(fsm)
    stim = [1, 2, 1 << fsm.num_inputs, 0]
    with pytest.raises(ValueError):
        fast_impl.run(stim)
    with pytest.raises(ValueError):
        run_reference(ref_impl, stim)
    # The oracle clocks up to the failing cycle; run checks the whole
    # stimulus first and leaves the block's statistics untouched.
    assert ref_impl._rom.total_edges == 2
    assert fast_impl._rom.total_edges == 0
    assert fast_impl._rom.enabled_edges == 0
