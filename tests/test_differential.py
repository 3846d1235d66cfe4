"""One differential harness for every simulator of every implementation.

For each machine and stimulus, three simulations must agree on the
output stream and the state trajectory:

- the STG reference (:class:`repro.fsm.simulate.FsmSimulator`);
- the FF netlist (:func:`repro.synth.netsim.simulate_ff_netlist`),
  under binary and one-hot state codes;
- the ROM replay (:meth:`repro.romfsm.impl.RomFsmImplementation.run`),
  under every mapper configuration the machine admits: plain, column
  compacted, clock controlled (alone and compacted), Moore outputs
  internal, and Moore outputs external (alone and clock controlled).

Each implementation must also equal its per-cycle oracle on every
toggle count, and the ROM on the BRAM edge statistics it leaves behind
(clock edges, enabled edges, latched output word).

The machines are seeded :mod:`repro.bench.generator` FSMs, the
degenerate machines of ``tests/fsm/test_step_compiled.py`` and the
15-address-bit machine of ``tests/romfsm/test_series_joining.py``,
which the mapper splits over two series blocks.  Every machine runs at
the word-packing edges of 0, 1, 2, 3, 17, 64, 65 and 200 cycles, once
on uniform random stimulus and once on idle-biased stimulus (which
drives the enable/hold path of clock control).

The ROM words and the idle-biased stimulus streams must also equal
their step-based oracles exactly, over the same machines and two wide
ones: ``wide14`` (4 states, 14 inputs) and ``wide18`` (2 states, 18
inputs), whose states each read at most three input columns.
"""

import copy
import dataclasses
from functools import lru_cache

import pytest

from repro.bench.generator import GeneratorSpec, generate_fsm
from repro.bench.suite import load_benchmark
from repro.fsm.machine import IMAGE_MAX_ENTRIES, FSM, FsmError, Transition
from repro.fsm.simulate import FsmSimulator, idle_biased_stimulus, random_stimulus
from repro.logic.cube import Cube
from repro.logic.lutmap import MappedLut
from repro.logic.truthtable import TruthTable
from repro.romfsm.compaction import ColumnCompaction
from repro.romfsm.contents import RomLayout, generate_contents
from repro.romfsm.mapper import map_fsm_to_rom
from repro.synth import codegen
from repro.synth.ff_synth import synthesize_ff
from repro.synth.netsim import simulate_ff_netlist
from tests.reference_sim import (
    combinational_inputs,
    generate_contents_reference,
    idle_biased_stimulus_reference,
    run_reference,
    simulate_ff_netlist_reference,
)
from tests.romfsm.test_series_joining import wide_dense_machine

WIDTHS = [0, 1, 2, 3, 17, 64, 65, 200]

ENCODINGS = ["binary", "one-hot"]

CONFIGS = {
    "plain": dict(),
    "compacted": dict(force_compaction=True),
    "clock-control": dict(clock_control=True),
    "compacted-clock-control": dict(force_compaction=True, clock_control=True),
    "moore-internal": dict(moore_outputs="internal"),
    "moore-external": dict(moore_outputs="external"),
    "moore-external-clock-control": dict(
        moore_outputs="external", clock_control=True
    ),
}


def rom_configs(fsm: FSM):
    """The mapper configurations ``fsm`` admits.

    External Moore outputs (Fig. 3) need a complete Moore machine; every
    other configuration maps any deterministic machine.
    """
    external_ok = fsm.is_moore() and fsm.is_complete()
    return [
        name for name, kwargs in CONFIGS.items()
        if external_ok or kwargs.get("moore_outputs") != "external"
    ]


# ----------------------------------------------------------------------
# Machines
# ----------------------------------------------------------------------


def generated(seed: int) -> FSM:
    """A seeded generator machine; the seed varies every spec axis."""
    num_inputs = 1 + seed % 5
    return generate_fsm(GeneratorSpec(
        name=f"g{seed}",
        num_states=2 + (3 * seed) % 9,
        num_inputs=num_inputs,
        num_outputs=1 + seed % 4,
        care_inputs=(0, min(num_inputs, 3)),
        branch_probability=0.3 + 0.1 * (seed % 5),
        self_loop_bias=0.15 * (seed % 4),
        moore=seed % 2 == 1,
        seed=1000 + seed,
    ))


def single_state() -> FSM:
    fsm = FSM("one", 2, 1, ["S"], "S")
    fsm.add("S", "1-", "S", "1")
    return fsm


def zero_inputs() -> FSM:
    fsm = FSM("zero", 0, 2, ["A", "B"], "A")
    fsm.add("A", "", "B", "10")
    fsm.add("B", "", "A", "01")
    return fsm


def unspecified_pairs() -> FSM:
    fsm = FSM("partial", 2, 1, ["A", "B"], "A")
    fsm.add("A", "11", "B", "1")
    return fsm


def overlapping_cubes() -> FSM:
    # Benign overlap only: the implementations reject a conflicting one.
    fsm = FSM("overlap", 2, 1, ["A", "B", "C"], "A")
    fsm.add("A", "1-", "B", "1")
    fsm.add("A", "11", "B", "1")
    fsm.add("B", "-1", "C", "1")
    return fsm


def dont_care_outputs() -> FSM:
    fsm = FSM("dc", 1, 3, ["A", "B"], "A")
    fsm.add("A", "-", "B", "---")
    fsm.add("B", "1", "A", "-1-")
    return fsm


def empty_cube() -> FSM:
    fsm = FSM("empty", 2, 1, ["A", "B"], "A")
    fsm.add_transition(Transition("A", "B", Cube(2, 0b01, 0b00), "1"))
    fsm.add("A", "-1", "A", "1")
    return fsm


DEGENERATE = {
    fn.__name__: fn
    for fn in (
        single_state, zero_inputs, unspecified_pairs, overlapping_cubes,
        dont_care_outputs, empty_cube,
    )
}

GENERATED_SEEDS = range(8)

# Wide machines: (inputs, states).  Each state reads at most three
# columns, so both compact to a small memory.
WIDE = {"wide14": (14, 4), "wide18": (18, 2)}


def wide(key: str) -> FSM:
    num_inputs, num_states = WIDE[key]
    return generate_fsm(GeneratorSpec(
        name=key,
        num_states=num_states,
        num_inputs=num_inputs,
        num_outputs=2,
        care_inputs=(1, 3),
        moore=True,
        seed=7,
    ))


@lru_cache(maxsize=None)
def machine(key: str) -> FSM:
    if key.startswith("g"):
        return generated(int(key[1:]))
    if key == "series":
        return wide_dense_machine()
    if key in WIDE:
        return wide(key)
    return DEGENERATE[key]()


@lru_cache(maxsize=None)
def ff_impl(key: str, encoding: str):
    return synthesize_ff(machine(key), encoding_style=encoding)


@lru_cache(maxsize=None)
def rom_impl(key: str, config: str):
    return map_fsm_to_rom(machine(key), **CONFIGS[config])


def stimuli(key: str, cycles: int):
    fsm = machine(key)
    uniform = random_stimulus(fsm.num_inputs, cycles, seed=cycles)
    if key == "series" and cycles > 10:
        # Random 15-bit vectors almost never hit the 14-bit trigger cube.
        uniform[cycles // 3] = (1 << 14) - 1
        uniform[cycles // 2] = (1 << 15) - 1
    idle = idle_biased_stimulus(fsm, cycles, idle_fraction=0.6, seed=cycles)
    return {"uniform": uniform, "idle": idle}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_ff(impl, stimulus, reference) -> None:
    trace = simulate_ff_netlist(impl, stimulus)
    oracle = simulate_ff_netlist_reference(impl, stimulus)
    assert trace.output_stream == reference.outputs
    assert trace.state_stream == reference.states
    assert trace.num_cycles == oracle.num_cycles
    assert trace.output_stream == oracle.output_stream
    assert trace.state_stream == oracle.state_stream
    assert trace.net_toggles == oracle.net_toggles
    assert trace.ff_output_toggles == oracle.ff_output_toggles


def bram_stats(impl):
    rom = impl._rom
    return rom.total_edges, rom.enabled_edges, rom.output


def check_rom(impl, stimulus, reference, collect_nets=True) -> None:
    # Private copies: a ROM run moves the block's edge statistics.
    fast_impl, oracle_impl = copy.deepcopy(impl), copy.deepcopy(impl)
    trace = fast_impl.run(stimulus, collect_nets=collect_nets)
    oracle = run_reference(oracle_impl, stimulus, collect_nets=collect_nets)
    assert trace.output_stream == reference.outputs
    assert trace.state_stream == reference.states
    assert trace.num_cycles == oracle.num_cycles
    assert trace.output_stream == oracle.output_stream
    assert trace.state_stream == oracle.state_stream
    assert trace.signal_toggles == oracle.signal_toggles
    assert trace.mux_toggles == oracle.mux_toggles
    assert trace.moore_toggles == oracle.moore_toggles
    assert trace.control_toggles == oracle.control_toggles
    assert trace.enabled_edges == oracle.enabled_edges
    assert bram_stats(fast_impl) == bram_stats(oracle_impl)


def check_machine(key: str, cycles: int) -> None:
    fsm = machine(key)
    for stimulus in stimuli(key, cycles).values():
        reference = FsmSimulator(fsm).run(stimulus)
        for encoding in ENCODINGS:
            check_ff(ff_impl(key, encoding), stimulus, reference)
        for config in rom_configs(fsm):
            check_rom(rom_impl(key, config), stimulus, reference)


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cycles", WIDTHS)
@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_machine(seed, cycles):
    check_machine(f"g{seed}", cycles)


@pytest.mark.parametrize("cycles", WIDTHS)
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_machine(name, cycles):
    check_machine(name, cycles)


@pytest.mark.parametrize("cycles", WIDTHS)
def test_series_joined_machine(cycles):
    impl = rom_impl("series", "plain")
    assert impl.layout.addr_bits == 15 and impl.series_brams == 2
    check_machine("series", cycles)


def test_series_joined_machine_fires_its_trigger():
    stimulus = stimuli("series", 200)["uniform"]
    assert 1 in FsmSimulator(machine("series")).run(stimulus).outputs


def test_matrix_covers_every_configuration():
    configs = {
        config
        for key in [f"g{seed}" for seed in GENERATED_SEEDS]
        for config in rom_configs(machine(key))
    }
    assert configs == set(CONFIGS)


@pytest.mark.parametrize("config", ["compacted-clock-control",
                                    "moore-external-clock-control"])
def test_without_net_collection(config):
    key = "g1"
    stimulus = stimuli(key, 65)["idle"]
    reference = FsmSimulator(machine(key)).run(stimulus)
    check_rom(rom_impl(key, config), stimulus, reference, collect_nets=False)


# ----------------------------------------------------------------------
# ROM words and stimulus streams equal their step-based oracles
# ----------------------------------------------------------------------

MACHINE_KEYS = (
    [f"g{seed}" for seed in GENERATED_SEEDS] + sorted(DEGENERATE) + ["series"]
)


def oracle_words(impl):
    return generate_contents_reference(
        impl.fsm, impl.encoding, impl.layout, impl.compaction
    )


@pytest.mark.parametrize("key", MACHINE_KEYS)
def test_rom_words_match_the_step_oracle(key):
    fsm = machine(key)
    for config in rom_configs(fsm):
        impl = rom_impl(key, config)
        assert impl.contents == oracle_words(impl), config


@pytest.mark.parametrize("key", [f"g{seed}" for seed in GENERATED_SEEDS])
def test_rom_words_under_a_wider_compaction(key):
    # An ECO reuses the old multiplexer table, which may select columns
    # the new machine's cubes no longer bind.
    fsm = machine(key)
    impl = rom_impl(key, "compacted")
    old = impl.compaction
    state_columns = {}
    for state, cols in old.state_columns.items():
        spare = [c for c in range(fsm.num_inputs) if c not in cols]
        state_columns[state] = tuple(sorted(cols + tuple(spare[:1])))
    width = max(len(cols) for cols in state_columns.values())
    compaction = ColumnCompaction(width, state_columns, fsm.num_inputs)
    layout = RomLayout(width, impl.layout.state_bits, impl.layout.output_bits)
    assert generate_contents(
        fsm, impl.encoding, layout, compaction
    ) == generate_contents_reference(fsm, impl.encoding, layout, compaction)


@pytest.mark.parametrize("key", sorted(WIDE))
def test_wide_machine_words_and_runs(key):
    fsm = machine(key)
    for stimulus in stimuli(key, 65).values():
        reference = FsmSimulator(fsm).run(stimulus)
        for encoding in ENCODINGS:
            check_ff(ff_impl(key, encoding), stimulus, reference)
    for config in ("compacted", "moore-external",
                   "moore-external-clock-control"):
        impl = rom_impl(key, config)
        assert impl.compaction is not None
        assert impl.contents == oracle_words(impl), config
        for stimulus in stimuli(key, 65).values():
            reference = FsmSimulator(fsm).run(stimulus)
            check_rom(impl, stimulus, reference)


def test_wide_machines_straddle_the_image_bound():
    below, above = machine("wide14"), machine("wide18")
    assert below.num_states << below.num_inputs == IMAGE_MAX_ENTRIES
    assert above.num_states << above.num_inputs > IMAGE_MAX_ENTRIES
    assert all(isinstance(col, list) for col in below.image().values())
    assert not any(isinstance(col, list) for col in above.image().values())


def test_wide14_uncompacted_rom_words():
    # The full-width memory of the wide machine at the image bound.
    fsm = machine("wide14")
    encoding = rom_impl("wide14", "compacted").encoding
    layout = RomLayout(fsm.num_inputs, encoding.width, fsm.num_outputs)
    assert generate_contents(
        fsm, encoding, layout
    ) == generate_contents_reference(fsm, encoding, layout)


@pytest.mark.parametrize("max_probes", [96, 4])
@pytest.mark.parametrize("key", MACHINE_KEYS + sorted(WIDE))
def test_idle_biased_stimulus_matches_the_step_oracle(key, max_probes):
    fsm = machine(key)
    for idle_fraction in (0.0, 0.6, 1.0):
        for seed in (0, 5):
            assert idle_biased_stimulus(
                fsm, 200, idle_fraction, seed=seed, max_probes=max_probes
            ) == idle_biased_stimulus_reference(
                fsm, 200, idle_fraction, seed=seed, max_probes=max_probes
            ), (idle_fraction, seed)


def test_conflicting_overlap_is_rejected_by_both_implementations():
    fsm = overlapping_cubes()
    fsm.add("B", "11", "A", "0")
    with pytest.raises(FsmError):
        synthesize_ff(fsm)
    with pytest.raises(FsmError):
        map_fsm_to_rom(fsm)


# ----------------------------------------------------------------------
# A simulator that disagrees with its STG raises
# ----------------------------------------------------------------------
#
# Each case mutates a freshly mapped implementation so that it first
# disagrees with the STG at a known cycle, and expects the simulation to
# name that cycle instead of returning a trace.

MUTATION_KEY = "g2"
MUTATION_CYCLES = 200


def latest_first_use(values):
    """The latest cycle on which some value appears for the first time."""
    first = {}
    for k, value in enumerate(values):
        first.setdefault(value, k)
    return max(first.values())


def test_flipped_rom_word_raises_at_its_first_read():
    fsm = machine(MUTATION_KEY)
    impl = map_fsm_to_rom(fsm)
    assert impl.compaction is None  # the address is (state, raw inputs)
    stimulus = stimuli(MUTATION_KEY, MUTATION_CYCLES)["uniform"]
    reference = FsmSimulator(fsm).run(stimulus)
    addrs = [
        impl.layout.make_address(impl.encoding.encode(state), bits)
        for state, bits in zip(reference.states, stimulus)
    ]
    cycle = latest_first_use(addrs)
    assert cycle > 0
    impl.contents[addrs[cycle]] ^= 1
    impl._rom.load(impl.contents)

    pattern = rf"{MUTATION_KEY}: ROM .* at cycle {cycle}$"
    with pytest.raises(AssertionError, match=pattern):
        impl.run(stimulus)
    assert bram_stats(impl) == (0, 0, 0)


def test_flipped_ns_lut_bit_raises_at_its_first_use():
    fsm = machine(MUTATION_KEY)
    impl = synthesize_ff(fsm)
    stimulus = stimuli(MUTATION_KEY, MUTATION_CYCLES)["uniform"]
    reference = FsmSimulator(fsm).run(stimulus)
    # Net values of the unmutated netlist along the reference trajectory.
    nets = [
        impl.mapping.evaluate_all_nets(
            combinational_inputs(impl, impl.encoding.encode(state), bits)
        )
        for state, bits in zip(reference.states, stimulus)
    ]
    luts = {lut.name: lut for lut in impl.mapping.luts}
    # Per ns* LUT, the truth-table row each cycle reads; mutate the row
    # that is first read latest.
    candidates = []
    for name in impl.next_state_names:
        lut = luts.get(impl.mapping.outputs[name])
        if lut is not None:
            rows = [
                sum(n[src] << i for i, src in enumerate(lut.input_nets))
                for n in nets
            ]
            cycle = latest_first_use(rows)
            candidates.append((cycle, rows[cycle], lut))
    cycle, row, lut = max(candidates, key=lambda c: c[0])
    assert cycle > 0
    index = impl.mapping.luts.index(lut)
    impl.mapping.luts[index] = dataclasses.replace(
        lut, table=TruthTable(lut.table.n_inputs, lut.table.bits ^ (1 << row))
    )

    pattern = rf"{MUTATION_KEY}: FF .* at cycle {cycle}$"
    with pytest.raises(AssertionError, match=pattern):
        simulate_ff_netlist(impl, stimulus)


@pytest.mark.parametrize("config, label", [
    ("moore-external", "ROM"),
    ("moore-external-clock-control", r"ROM\+clock-control"),
])
def test_flipped_moore_output_lut_bit_raises_at_cycle_0(config, label):
    fsm = load_benchmark("prep4")
    impl = map_fsm_to_rom(fsm, **CONFIGS[config])
    mapping = impl.moore_output_mapping
    assert mapping is not None  # outputs come from LUTs, not the ROM
    encoding = impl.encoding
    # The out0 LUT's truth-table row in the reset state (code 0).
    nets = mapping.evaluate_all_nets(
        {encoding.bit_name(b): 0 for b in range(encoding.width)}
    )
    lut = mapping.lut_by_name(mapping.outputs["out0"])
    row = sum(nets[src] << i for i, src in enumerate(lut.input_nets))
    flipped = MappedLut(
        lut.name, lut.input_nets,
        TruthTable(lut.table.n_inputs, lut.table.bits ^ 1 << row),
        lut.level,
    )
    impl.moore_output_mapping = dataclasses.replace(
        mapping, luts=[flipped if x is lut else x for x in mapping.luts]
    )
    stimulus = random_stimulus(fsm.num_inputs, 50, seed=1)

    with pytest.raises(AssertionError, match=rf"^prep4: {label} .* at cycle 0$"):
        impl.run(stimulus)
    assert bram_stats(impl) == (0, 0, 0)


@pytest.mark.parametrize("implementation", ["ff", "rom"])
def test_codegen_failure_propagates(implementation, monkeypatch):
    fsm = machine(MUTATION_KEY)
    stimulus = stimuli(MUTATION_KEY, MUTATION_CYCLES)["uniform"]
    # Clock control gives the ROM a LUT mapping to compile.
    ff = synthesize_ff(fsm)
    rom = map_fsm_to_rom(fsm, clock_control=True)

    def broken(mapping):
        raise RuntimeError("injected compile failure")

    monkeypatch.setattr(codegen, "compile_mapping", broken)
    with pytest.raises(RuntimeError, match="injected compile failure"):
        if implementation == "ff":
            simulate_ff_netlist(ff, stimulus)
        else:
            rom.run(stimulus)
    assert codegen.stats().fallbacks == 0
    assert bram_stats(rom) == (0, 0, 0)


def test_out_of_range_input_raises_before_any_statistic():
    fsm = machine(MUTATION_KEY)
    impl = map_fsm_to_rom(fsm)
    stimulus = [1, 0, 1 << fsm.num_inputs, 0]
    with pytest.raises(ValueError, match="out of range"):
        impl.run(stimulus)
    assert bram_stats(impl) == (0, 0, 0)
