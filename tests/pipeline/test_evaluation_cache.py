"""Integration tests: the Fig. 6 evaluation flow against the cache.

These pin the acceptance behaviour of the refactor: a warm second run
is served entirely from the cache and is bit-identical, seed changes
invalidate exactly the simulation-dependent stages, and the same
machine reaches the same artifacts however it enters the flow.
"""

import pytest

from repro.bench.suite import load_benchmark
from repro.flows.flow import evaluate_benchmark, evaluate_benchmark_detailed
from repro.pipeline.cache import ArtifactCache

KW = dict(num_cycles=150, seed=11)

ALL_STAGES = [
    "parse", "complete-encode", "ff-synth", "rom-map", "rom-cc",
    "simulate", "activity", "power",
]

# Stages whose cache keys do not involve the stimulus seed.
SEED_FREE = {"parse", "complete-encode", "ff-synth", "rom-map", "rom-cc"}


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def fingerprints(report):
    return {r.stage: r.fingerprint for r in report.records}


class TestWarmCache:
    @pytest.mark.parametrize("name", ["dk14", "ex1", "keyb", "planet", "styr"])
    def test_cold_then_warm(self, cache, name):
        cold_result, cold = evaluate_benchmark_detailed(
            name, cache=cache, **KW
        )
        assert [r.stage for r in cold.records] == ALL_STAGES
        assert cold.misses == len(ALL_STAGES)

        warm_result, warm = evaluate_benchmark_detailed(
            name, cache=cache, **KW
        )
        assert warm.hits == len(ALL_STAGES)
        assert warm.misses == 0
        # Acceptance: warm runs are >= 90% cache hits and bit-identical.
        assert warm.hits / len(warm.records) >= 0.9
        assert fingerprints(warm) == fingerprints(cold)
        key = f"{100.0:g}"
        assert warm_result.ff_power[key].total_mw == \
            cold_result.ff_power[key].total_mw
        assert warm_result.saving_percent() == cold_result.saving_percent()

    def test_warm_run_unpickles_only_what_it_reports(self, cache,
                                                     monkeypatch):
        _, cold = evaluate_benchmark_detailed("dk14", cache=cache, **KW)
        stage_of = {r.key: r.stage for r in cold.records}
        loaded = []
        real_load = ArtifactCache._load

        def recording_load(self, key, *args):
            loaded.append(stage_of[key])
            return real_load(self, key, *args)

        monkeypatch.setattr(ArtifactCache, "_load", recording_load)
        warm = evaluate_benchmark("dk14", cache=cache, **KW)
        monkeypatch.undo()
        assert sorted(loaded) == sorted(
            ["parse", "ff-synth", "rom-map", "rom-cc", "power"]
        )
        plain = evaluate_benchmark("dk14", **KW)
        assert warm.achieved_idle_fraction == plain.achieved_idle_fraction
        assert warm.cc_saving_percent() == plain.cc_saving_percent()

    def test_results_match_uncached_run(self, cache):
        _, cached = evaluate_benchmark_detailed("dk14", cache=cache, **KW)
        _, plain = evaluate_benchmark_detailed("dk14", **KW)
        assert fingerprints(cached) == fingerprints(plain)


class TestInvalidation:
    def test_seed_change_reruns_only_simulation_stages(self, cache):
        evaluate_benchmark_detailed("dk14", cache=cache, **KW)
        _, report = evaluate_benchmark_detailed(
            "dk14", cache=cache, num_cycles=KW["num_cycles"], seed=99
        )
        hits = {r.stage: r.cache_hit for r in report.records}
        for stage in ALL_STAGES:
            assert hits[stage] == (stage in SEED_FREE), stage

    def test_cycle_count_change_reruns_only_simulation_stages(self, cache):
        evaluate_benchmark_detailed("dk14", cache=cache, **KW)
        _, report = evaluate_benchmark_detailed(
            "dk14", cache=cache, num_cycles=90, seed=KW["seed"]
        )
        hits = {r.stage: r.cache_hit for r in report.records}
        for stage in ALL_STAGES:
            assert hits[stage] == (stage in SEED_FREE), stage

    def test_different_benchmarks_do_not_collide(self, cache):
        _, a = evaluate_benchmark_detailed("dk14", cache=cache, **KW)
        _, b = evaluate_benchmark_detailed("donfile", cache=cache, **KW)
        assert b.hits == 0
        assert fingerprints(a) != fingerprints(b)


class TestCrossEntryPoint:
    def test_fsm_object_entry_shares_downstream_artifacts(self, cache):
        _, named = evaluate_benchmark_detailed("dk14", cache=cache, **KW)
        fsm = load_benchmark("dk14")
        _, direct = evaluate_benchmark_detailed(fsm, cache=cache, **KW)
        # The parse key differs (named benchmark vs inline KISS text) but
        # the parse artifact fingerprint matches, so every downstream
        # stage is served from the named run's cache entries.
        hits = {r.stage: r.cache_hit for r in direct.records}
        assert hits["parse"] is False
        assert all(hits[s] for s in ALL_STAGES if s != "parse")
        assert fingerprints(direct) == fingerprints(named)
