"""The minimizer and the LUT mapper against their frozen reference copy.

``reference_synth.py`` holds the espresso loop and the cut mapper as
they were first written.  The production modules must return *exactly*
what the reference returns — the same cube sequence from ``espresso``
and ``complement`` (cube order steers the heuristics downstream), and
the same LUT names, input nets, table bits, levels and outputs from
``map_network`` — not merely functionally equivalent results.  Checked
on seeded random covers and networks and on the nine paper machines as
the FF flow hands them over.
"""

import functools
import random

import pytest

from repro.bench.suite import PAPER_BENCHMARKS, load_benchmark
from repro.logic import lutmap, minimize
from repro.logic.cube import Cover, Cube
from repro.logic.network import LogicNetwork
from repro.synth import ff_synth
from tests.logic import reference_synth as ref

ENCODINGS = ["binary", "gray", "one-hot"]


def cubes_of(cover):
    return cover.n_vars, [(c.zero_mask, c.one_mask) for c in cover.cubes]


def mapping_of(mapping):
    return (
        mapping.k,
        [
            (lut.name, lut.input_nets, lut.table.n_inputs, lut.table.bits,
             lut.level)
            for lut in mapping.luts
        ],
        mapping.input_nets,
        mapping.outputs,
    )


def random_cube(rng, n, free):
    zero = one = 0
    for var in range(n):
        roll = rng.random()
        if roll < free:
            zero |= 1 << var
            one |= 1 << var
        elif roll < (1 + free) / 2:
            zero |= 1 << var
        else:
            one |= 1 << var
    return Cube(n, zero, one)


def random_cover(rng, n, max_cubes):
    """A cover of up to ``max_cubes`` cubes; sometimes empty, sometimes
    holding the full cube, sometimes with repeated cubes."""
    roll = rng.random()
    if roll < 0.08:
        return Cover(n)
    free = rng.choice([0.2, 0.4, 0.6])
    count = rng.randint(1, max_cubes)
    cubes = [random_cube(rng, n, free) for _ in range(count)]
    if roll < 0.16:
        cubes.insert(rng.randrange(len(cubes) + 1), Cube.full(n))
    if roll > 0.9:
        cubes.append(rng.choice(cubes))
    return Cover(n, cubes)


def cover_case(seed):
    rng = random.Random(seed)
    n = 1 + seed % 16
    max_cubes = 12 if n <= 8 else 8
    on = random_cover(rng, n, max_cubes)
    dc = random_cover(rng, n, 4) if seed % 3 else None
    return on, dc


COVER_SEEDS = range(64)


@pytest.mark.parametrize("seed", COVER_SEEDS)
def test_espresso_matches_reference(seed):
    on, dc = cover_case(seed)
    want = ref.espresso(on, dc)
    got = minimize.espresso(on, dc)
    assert cubes_of(got) == cubes_of(want)


@pytest.mark.parametrize("seed", COVER_SEEDS)
def test_complement_and_tautology_match_reference(seed):
    on, dc = cover_case(seed)
    assert cubes_of(minimize.complement(on)) == cubes_of(ref.complement(on))
    assert minimize.is_tautology(on) == ref.is_tautology(on)
    # A cover joined with its complement is a tautology.
    whole = Cover(on.n_vars, on.cubes + ref.complement(on).cubes)
    assert minimize.is_tautology(whole) is ref.is_tautology(whole) is True
    if dc is not None:
        both = Cover(on.n_vars, on.cubes + dc.cubes)
        assert cubes_of(minimize.complement(both)) == \
            cubes_of(ref.complement(both))
        assert minimize.is_tautology(both) == ref.is_tautology(both)


def test_interleaved_calls_match_reference():
    """Memo state cannot mask a difference: every production call, made
    cold, warm and in another order, interleaved with reference calls,
    returns the reference's answer."""
    cases = [cover_case(seed) for seed in range(40)]
    minimize._COMPLEMENT_MEMO.clear()
    want = [cubes_of(ref.espresso(on, dc)) for on, dc in cases]
    order = list(range(len(cases)))
    for rng_seed in (0, 1):
        random.Random(rng_seed).shuffle(order)
        for i in order:
            on, dc = cases[i]
            assert cubes_of(minimize.espresso(on, dc)) == want[i]
            comp = cubes_of(minimize.complement(on))
            assert comp == cubes_of(ref.complement(on))
            assert cubes_of(minimize.espresso(on, dc)) == want[i]


def random_network(rng):
    net = LogicNetwork()
    num_inputs = rng.randint(1, 14)
    ids = [net.add_input(f"x{i}") for i in range(num_inputs)]
    if rng.random() < 0.3:
        ids.append(net.const(rng.randint(0, 1)))

    def pick():
        # Prefer recent nodes so cones get deep as well as wide.
        return ids[max(0, len(ids) - 1 - int(rng.expovariate(0.1)))]

    for _ in range(rng.randint(3, 80)):
        kind = rng.random()
        if kind < 0.15:
            ids.append(net.not_(pick()))
        elif kind < 0.5:
            ids.append(net.and_(pick(), pick()))
        elif kind < 0.85:
            ids.append(net.or_(pick(), pick()))
        else:
            ids.append(net.xor_(pick(), pick()))
    for o in range(rng.randint(1, 5)):
        net.set_output(f"y{o}", rng.choice(ids[-12:]))
    if rng.random() < 0.3:
        net.set_output("wire", ids[0])
    if rng.random() < 0.2:
        net.set_output("tie", net.const(rng.randint(0, 1)))
    return net


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("cut_limit", [1, 3, 12])
def test_map_network_matches_reference(k, cut_limit):
    for seed in range(12):
        network = random_network(random.Random(1000 * k + seed))
        want = ref.map_network(network, k=k, cut_limit=cut_limit)
        got = lutmap.map_network(network, k=k, cut_limit=cut_limit)
        assert mapping_of(got) == mapping_of(want), (k, cut_limit, seed)


# Networks on which single-fanout absorption must go back to a LUT it
# passed over: a merge leaves an earlier LUT with one reader.
REVISIT_CASES = [(73, 3, 2), (313, 4, 1), (1066, 4, 1), (1205, 3, 1)]


@pytest.mark.parametrize("seed,k,cut_limit", REVISIT_CASES)
def test_absorption_revisit_matches_reference(seed, k, cut_limit):
    network = random_network(random.Random(seed))
    want = ref.map_network(network, k=k, cut_limit=cut_limit)
    got = lutmap.map_network(network, k=k, cut_limit=cut_limit)
    assert mapping_of(got) == mapping_of(want)


@functools.lru_cache(maxsize=None)
def ff_flow_calls(name, style):
    """Every espresso and map_network call the FF flow makes for one
    machine, with the production results."""
    espresso_calls = []
    map_calls = []

    def espresso_spy(on, dc=None):
        result = minimize.espresso(on, dc)
        espresso_calls.append((on, dc, cubes_of(result)))
        return result

    def map_spy(network, k=4):
        result = lutmap.map_network(network, k=k)
        map_calls.append((network, k, mapping_of(result)))
        return result

    saved = ff_synth.espresso, ff_synth.map_network
    ff_synth.espresso, ff_synth.map_network = espresso_spy, map_spy
    try:
        ff_synth.synthesize_ff(load_benchmark(name), style)
    finally:
        ff_synth.espresso, ff_synth.map_network = saved
    return espresso_calls, map_calls


@pytest.mark.parametrize("style", ENCODINGS)
@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_paper_machine_synthesis_matches_reference(name, style):
    espresso_calls, map_calls = ff_flow_calls(name, style)
    for on, dc, got in espresso_calls:
        assert got == cubes_of(ref.espresso(on, dc))
    assert len(map_calls) == 1
    network, k, got = map_calls[0]
    assert got == mapping_of(ref.map_network(network, k=k))
