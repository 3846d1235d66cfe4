"""The compiled ROM replay must equal the per-cycle oracle everywhere.

:meth:`RomFsmImplementation.run` evaluates the auxiliary LUT mappings
and the replay loop through compiled functions, and every observable
must stay identical to :func:`tests.reference_sim.run_reference` for
every mapper configuration and word widths across the packing edge
cases — with the fallback counter untouched.
"""

import pytest

from repro.bench.generator import generate_fsm
from repro.bench.suite import PAPER_BENCHMARKS, load_benchmark
from repro.fsm.simulate import idle_biased_stimulus, random_stimulus
from repro.romfsm.mapper import map_fsm_to_rom
from repro.synth import codegen
from repro.synth.ff_synth import synthesize_ff
from repro.synth.netsim import simulate_ff_netlist
from tests.reference_sim import run_reference, simulate_ff_netlist_reference
from tests.romfsm.test_equivalence_properties import _make_spec
from tests.romfsm.test_impl_wordparallel import (
    CONFIGS,
    assert_rom_traces_equal,
)
from tests.synth.test_codegen import assert_traces_equal

@pytest.fixture(autouse=True)
def fresh_codegen_state():
    codegen.clear_compilation_cache()
    codegen.reset_stats()
    yield
    codegen.clear_compilation_cache()
    codegen.reset_stats()


def run_both_codegen(fsm, stim, collect_nets=True, **mapper_kwargs):
    fast_impl = map_fsm_to_rom(fsm, **mapper_kwargs)
    ref_impl = map_fsm_to_rom(fsm, **mapper_kwargs)
    fast = fast_impl.run(stim, collect_nets=collect_nets)
    ref = run_reference(ref_impl, stim, collect_nets=collect_nets)
    assert_rom_traces_equal(fast, ref)
    assert fast_impl._rom.total_edges == ref_impl._rom.total_edges
    assert fast_impl._rom.enabled_edges == ref_impl._rom.enabled_edges
    assert fast_impl._rom.output == ref_impl._rom.output
    assert codegen.stats().fallbacks == 0


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: "-".join(sorted(c)) or "plain")
@pytest.mark.parametrize("moore", [False, True])
def test_matches_reference_across_configs(config, moore):
    if config.get("moore_outputs") == "external" and not moore:
        pytest.skip("external output placement requires a Moore machine")
    fsm = generate_fsm(_make_spec(9, 3, 3, 0, 2, 0.5, 0.35, moore, seed=11))
    stim = random_stimulus(fsm.num_inputs, 120, seed=3)
    run_both_codegen(fsm, stim, **config)


@pytest.mark.parametrize("cycles", [0, 1, 2, 3, 17, 64, 65, 200])
def test_matches_reference_across_word_widths(cycles):
    fsm = generate_fsm(_make_spec(6, 2, 2, 0, 2, 0.6, 0.4, False, seed=5))
    stim = random_stimulus(fsm.num_inputs, cycles, seed=cycles)
    run_both_codegen(fsm, stim, clock_control=True)


def test_matches_reference_on_idle_biased_stimulus():
    fsm = generate_fsm(_make_spec(8, 3, 2, 0, 2, 0.5, 0.6, False, seed=23))
    stim = idle_biased_stimulus(fsm, 150, idle_fraction=0.6, seed=4)
    run_both_codegen(fsm, stim, clock_control=True)


def test_out_of_range_input_raises_under_codegen():
    fsm = generate_fsm(_make_spec(5, 2, 2, 0, 2, 0.5, 0.3, False, seed=2))
    fast_impl = map_fsm_to_rom(fsm)
    ref_impl = map_fsm_to_rom(fsm)
    stim = [1, 2, 1 << fsm.num_inputs, 0]
    with pytest.raises(ValueError):
        fast_impl.run(stim)
    with pytest.raises(ValueError):
        run_reference(ref_impl, stim)
    assert fast_impl._rom.total_edges == 0
    assert fast_impl._rom.enabled_edges == 0


@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_paper_benchmarks_never_fall_back(name):
    fsm = load_benchmark(name)
    stim = random_stimulus(fsm.num_inputs, 200, seed=9)
    ff = synthesize_ff(fsm)
    assert_traces_equal(
        simulate_ff_netlist(ff, stim), simulate_ff_netlist_reference(ff, stim)
    )
    for kwargs in (dict(), dict(clock_control=True)):
        impl = map_fsm_to_rom(fsm, **kwargs)
        ref = map_fsm_to_rom(fsm, **kwargs)
        assert_rom_traces_equal(impl.run(stim), run_reference(ref, stim))
    assert codegen.stats().fallbacks == 0
