"""Differential test: the in-place annealer against its frozen copy.

``anneal_encoding`` edits a code list in place and undoes rejected
moves; the copy in ``reference_assign`` copies a code dict and
recomputes the cost on every move.  Both sum the edge terms in the same
order and make the same RNG calls, so the codes must be equal, not just
equally good.
"""

import pytest

from repro.bench.generator import GeneratorSpec, generate_fsm
from repro.bench.suite import PAPER_BENCHMARKS, load_benchmark
from repro.fsm.assign import anneal_encoding

from tests.fsm.reference_assign import reference_anneal_encoding

SEEDS = (0, 1, 2)


def _generated(seed: int):
    return generate_fsm(GeneratorSpec(
        name=f"anneal{seed}",
        num_states=2 + (5 * seed) % 23,
        num_inputs=1 + seed % 5,
        num_outputs=1 + seed % 3,
        care_inputs=(0, 1 + seed % 5),
        self_loop_bias=0.1 * (seed % 4),
        moore=seed % 2 == 1,
        seed=seed,
    ))


def _assert_same(fsm, **kwargs):
    got = anneal_encoding(fsm, **kwargs)
    want = reference_anneal_encoding(fsm, **kwargs)
    assert got.style == want.style
    assert got.width == want.width
    assert list(got.codes.items()) == list(want.codes.items())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_paper_benchmarks(name, seed):
    _assert_same(load_benchmark(name), seed=seed)


@pytest.mark.parametrize("seed", range(12))
def test_generated_machines(seed):
    fsm = _generated(seed)
    _assert_same(fsm, seed=seed, iterations=1500)
    _assert_same(fsm, seed=seed, iterations=600, pin_reset_to_zero=False,
                 initial_temperature=3.0)
