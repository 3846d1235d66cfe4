"""Quality and throughput gates of the tuner on three paper benchmarks.

One cold search per benchmark (``jobs=1``, 256 cycles, seed 2004) fills
a shared artifact cache.  The gates then check that the search beats
the paper's fixed mapper heuristic, that every frontier point replays
bit-identically, and that a warm, sidecar-served search is at least
ten times faster per candidate than a naive loop that simulates each
candidate on its own.
"""

import time

import pytest

from repro.bench.suite import load_benchmark
from repro.fsm.assign import clear_strategy_cache
from repro.fsm.markov import clear_stationary_cache
from repro.pipeline.artifact import Artifact
from repro.romfsm.mapper import clear_aux_logic_cache, map_fsm_to_rom
from repro.tune import (
    DEFAULT_TUNE_FREQUENCY_MHZ,
    baseline_candidate,
    default_space,
    replay_point,
    score,
    tune_benchmark,
)

BENCHMARKS = ["dk14", "sand", "ex1"]
SETTINGS = dict(jobs=1, num_cycles=256, seed=2004)
NAIVE_SAMPLE = 24


@pytest.fixture(scope="module")
def searched(tmp_path_factory):
    """Cold searches of every benchmark into one cache: (cache, results)."""
    cache = str(tmp_path_factory.mktemp("tune-gates") / "cache")
    results = {
        name: tune_benchmark(name, cache=cache, **SETTINGS)
        for name in BENCHMARKS
    }
    return cache, results


def naive_round(name, cycles, seed, limit):
    """The reference the tuner is judged against: every candidate
    mapped and scored individually — no cache, no dedupe, no pruning, no
    in-process memos.  The sample *strides* across the full grid (the
    enumeration orders the encoding axis outermost, so a head-of-list
    sample would be all cheap binary-encoding candidates) and the
    stationary, strategy and auxiliary-logic memos are cleared before
    each candidate, the per-candidate state a tunerless loop would
    have.  ``limit`` bounds the wall-clock; the rate is what matters
    and is per-candidate.  Returns candidates per second."""
    fsm = load_benchmark(name)
    space = default_space(fsm)
    candidates = [baseline_candidate()] + space.enumerate()
    if limit and limit < len(candidates):
        step = max(1, len(candidates) // limit)
        sample = candidates[::step][:limit]
    else:
        sample = candidates
    settings = dict(num_cycles=cycles, seed=seed,
                    frequency_mhz=DEFAULT_TUNE_FREQUENCY_MHZ, verify=True)
    start = time.perf_counter()
    for candidate in sample:
        clear_stationary_cache()
        clear_strategy_cache()
        clear_aux_logic_cache()
        impl = map_fsm_to_rom(fsm, **candidate.mapper_kwargs())
        score(fsm, impl, settings)
    return len(sample) / (time.perf_counter() - start)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_search_beats_fixed_heuristic(searched, name):
    _, results = searched
    assert results[name].best_power_saving_percent() > 0


@pytest.mark.parametrize("name", BENCHMARKS)
def test_every_frontier_point_replays_bit_identically(searched, name):
    # Replay re-maps and re-simulates each point rather than reading
    # back the entry the search wrote.
    _, results = searched
    result = results[name]
    fsm = load_benchmark(name)
    for point in result.frontier:
        fresh = replay_point(point, name, **result.settings)
        assert fresh == point.fitness, point.candidate
        impl = map_fsm_to_rom(fsm, **point.candidate.mapper_kwargs())
        assert point.impl_fingerprint == Artifact.of(impl).fingerprint


@pytest.mark.parametrize("name", BENCHMARKS)
def test_warm_search_is_tenfold_a_naive_sweep(searched, name):
    cache, _ = searched
    warm = tune_benchmark(name, cache=cache, **SETTINGS)
    naive_cps = naive_round(
        name, SETTINGS["num_cycles"], SETTINGS["seed"], NAIVE_SAMPLE,
    )
    speedup = warm.stats["candidates_per_sec"] / naive_cps
    assert speedup >= 10, (warm.stats, naive_cps)
