"""A candidate that disagrees with its machine fails naming the cycle.

``score`` runs the candidate on the search's shared stimulus.  The run
checks the programmed ROM words and the output stream the external
Moore output logic produces.  Either check raises
:func:`repro.fsm.simulate.divergence` at the first cycle that reads the
corrupted bit.
"""

import dataclasses

import pytest

from repro.bench.suite import load_benchmark
from repro.fsm.simulate import FsmSimulator, random_stimulus
from repro.logic.lutmap import MappedLut
from repro.logic.truthtable import TruthTable
from repro.romfsm.mapper import map_fsm_to_rom
from repro.tune import DEFAULT_TUNE_FREQUENCY_MHZ, score

CYCLES = 256
SEED = 2004
SETTINGS = dict(
    num_cycles=CYCLES, seed=SEED,
    frequency_mhz=DEFAULT_TUNE_FREQUENCY_MHZ, verify=True,
)


def shared_run(fsm):
    """The stimulus ``score`` draws and the reference trace on it."""
    stimulus = random_stimulus(fsm.num_inputs, CYCLES, seed=SEED)
    return stimulus, FsmSimulator(fsm).run(stimulus)


def latest_first_use(values):
    """The latest cycle on which some value appears for the first time."""
    first = {}
    for k, value in enumerate(values):
        first.setdefault(value, k)
    return max(first.values())


def test_corrupted_rom_word_fails_at_its_first_use():
    fsm = load_benchmark("dk14")
    impl = map_fsm_to_rom(fsm)
    assert impl.compaction is None  # the address is (state, raw inputs)
    stimulus, reference = shared_run(fsm)
    addrs = [
        impl.layout.make_address(impl.encoding.encode(state), bits)
        for state, bits in zip(reference.states, stimulus)
    ]
    cycle = latest_first_use(addrs)
    assert cycle > 0
    impl.contents = list(impl.contents)
    impl.contents[addrs[cycle]] ^= 1
    impl._rom.load(impl.contents)

    pattern = rf"^dk14: ROM implementation diverged .* at cycle {cycle}$"
    with pytest.raises(AssertionError, match=pattern):
        score(fsm, impl, SETTINGS)


def test_corrupted_moore_output_lut_fails_at_its_first_use():
    fsm = load_benchmark("prep4")
    impl = map_fsm_to_rom(fsm)
    mapping = impl.moore_output_mapping
    assert mapping is not None  # outputs come from LUTs, not the ROM
    stimulus, reference = shared_run(fsm)
    encoding = impl.encoding
    lut = mapping.lut_by_name(mapping.outputs["out0"])
    rows = []
    for state, bits in zip(reference.states, stimulus):
        code = encoding.encode(state)
        values = {
            encoding.bit_name(b): code >> b & 1 for b in range(encoding.width)
        }
        values.update({f"in{i}": bits >> i & 1 for i in range(fsm.num_inputs)})
        nets = mapping.evaluate_all_nets(values)
        rows.append(
            sum(nets[src] << i for i, src in enumerate(lut.input_nets))
        )
    cycle = latest_first_use(rows)
    assert cycle > 0
    flipped = MappedLut(
        lut.name, lut.input_nets,
        TruthTable(lut.table.n_inputs, lut.table.bits ^ 1 << rows[cycle]),
        lut.level,
    )
    impl.moore_output_mapping = dataclasses.replace(
        mapping, luts=[flipped if x is lut else x for x in mapping.luts]
    )

    pattern = rf"^prep4: ROM implementation diverged .* at cycle {cycle}$"
    with pytest.raises(AssertionError, match=pattern):
        score(fsm, impl, SETTINGS)
