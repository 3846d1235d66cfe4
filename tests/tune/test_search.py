"""Functional tests of the tuner search: frontier quality, pruning
exactness, dedupe, infeasibility handling, sidecar memoisation, and
replay."""

import pytest

from repro.fsm.kiss import parse_kiss
from repro.romfsm.mapper import map_fsm_to_rom
from repro.synth import codegen
from repro.tune import (
    TuneSpace,
    baseline_candidate,
    replay_point,
    tune_benchmark,
)

DETECTOR = """
.i 1
.o 1
.r A
0 A B 0
1 A A 0
0 B B 0
1 B C 0
0 C D 0
1 C A 0
0 D B 0
1 D C 1
"""

# Small enough to run in seconds, rich enough to exercise every phase:
# 3 encodings x 2 compaction x 2 clock control = 12 candidates.
SPACE = TuneSpace()
SMALL = dict(space=SPACE, num_cycles=96, seed=7, jobs=1)


class TestSearch:
    def test_best_power_never_worse_than_baseline(self):
        result = tune_benchmark("dk14", cache=False, **SMALL)
        assert result.best_power.power_mw <= result.baseline.power_mw
        assert result.best_power_saving_percent() >= 0.0

    def test_frontier_points_are_mutually_non_dominated(self):
        from repro.tune.frontier import dominates

        result = tune_benchmark("dk14", cache=False, **SMALL)
        for p in result.frontier:
            assert not any(
                dominates(q.objectives, p.objectives)
                for q in result.frontier if q is not p
            )

    def test_pruning_is_exact_versus_brute_force(self):
        pruned = tune_benchmark("dk14", cache=False, prune=True, **SMALL)
        brute = tune_benchmark("dk14", cache=False, prune=False, **SMALL)
        assert pruned.canonical_json() == brute.canonical_json()
        assert brute.stats["pruned"] == 0
        assert pruned.stats["evaluated"] <= brute.stats["evaluated"]

    def test_evaluated_plus_pruned_covers_every_structure(self):
        result = tune_benchmark("dk14", cache=False, **SMALL)
        s = result.stats
        assert s["evaluated"] + s["pruned"] == s["structures"]
        assert (s["structures"] + s["deduped"] + s["infeasible"]
                == s["candidates"] + 1)  # +1: the baseline candidate

    def test_pinning_the_heuristic_aspect_dedupes(self):
        fsm = parse_kiss(DETECTOR, "det")
        heuristic_aspect = map_fsm_to_rom(fsm).config.name
        space = TuneSpace(
            encodings=("binary",), clock_control=(False,),
            compaction=(False,), aspects=(None, heuristic_aspect),
        )
        result = tune_benchmark(
            fsm, space=space, cache=False, num_cycles=96, seed=7,
        )
        # aspect=None and the pinned heuristic aspect (and the baseline)
        # collapse onto one implementation.
        assert result.stats["deduped"] >= 2
        assert result.stats["structures"] == 1

    def test_infeasible_candidates_are_counted_not_fatal(self):
        fsm = parse_kiss(DETECTOR, "det")  # Mealy: external is illegal
        space = TuneSpace(moore_modes=("auto", "external"),
                          encodings=("binary",), clock_control=(False,),
                          compaction=(False,))
        result = tune_benchmark(
            fsm, space=space, cache=False, num_cycles=96, seed=7,
        )
        assert result.stats["infeasible"] >= 1
        assert result.frontier  # the feasible half still produced a front

    def test_ad_hoc_fsm_target(self):
        fsm = parse_kiss(DETECTOR, "det")
        result = tune_benchmark(fsm, cache=False, **SMALL)
        assert result.benchmark == "det"
        assert result.best_power.power_mw <= result.baseline.power_mw

    def test_cold_search_builds_each_aux_network_once(self, monkeypatch):
        from collections import Counter

        from repro.fsm.markov import stg_fingerprint
        from repro.romfsm import mapper
        from repro.romfsm.compaction import ColumnCompaction

        def encoding_key(encoding):
            return (encoding.style, encoding.width,
                    tuple(encoding.codes.items()))

        mux_builds, cc_builds = Counter(), Counter()
        build_mux = ColumnCompaction.build_mux_network
        synthesize_cc = mapper.synthesize_clock_control

        def counting_mux(compaction, encoding, k=4):
            mux_builds[(tuple(compaction.state_columns.items()),
                        compaction.width, compaction.num_inputs,
                        encoding_key(encoding), k)] += 1
            return build_mux(compaction, encoding, k=k)

        def counting_cc(fsm, encoding, outputs_in_rom, k=4,
                        max_idle_cubes=8):
            cc_builds[(stg_fingerprint(fsm), encoding_key(encoding),
                       outputs_in_rom, k, max_idle_cubes)] += 1
            return synthesize_cc(fsm, encoding, outputs_in_rom, k=k,
                                 max_idle_cubes=max_idle_cubes)

        monkeypatch.setattr(ColumnCompaction, "build_mux_network",
                            counting_mux)
        monkeypatch.setattr(mapper, "synthesize_clock_control", counting_cc)
        mapper.clear_aux_logic_cache()
        try:
            result = tune_benchmark("dk14", cache=False, **SMALL)
        finally:
            mapper.clear_aux_logic_cache()
        # Phase 1 maps every candidate and each evaluation maps its
        # structure again, and clock control is on in half the grid.
        assert result.stats["structures"] > 1
        assert mux_builds and cc_builds
        assert max(mux_builds.values()) == 1
        assert max(cc_builds.values()) == 1


def count_mappings(monkeypatch):
    """Count the tuner's calls into the mapper — one-call mappings,
    plans and builds, in Phase 1 and in evaluations — by name."""
    from repro.tune import search

    calls = []

    def counting(name):
        real = getattr(search, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counted

    for name in ("map_fsm_to_rom", "plan_rom_mapping", "build_rom_mapping"):
        monkeypatch.setattr(search, name, counting(name))
    return calls


class TestColdWork:
    def test_cold_search_builds_and_fingerprints_once_per_structure(
        self, monkeypatch
    ):
        from repro.romfsm.impl import RomFsmImplementation
        from repro.tune import search

        calls = count_mappings(monkeypatch)
        hashed = []
        real_fingerprint = search.fingerprint

        def counting_fingerprint(value):
            if isinstance(value, RomFsmImplementation):
                hashed.append(value)
            return real_fingerprint(value)

        monkeypatch.setattr(search, "fingerprint", counting_fingerprint)
        # dk14's default space: 168 candidates onto 72 structures.
        result = tune_benchmark("dk14", cache=False, num_cycles=96, seed=7)
        s = result.stats
        assert s["deduped"] > 0
        # Phase 1 plans every candidate (the baseline too) and builds
        # and fingerprints one implementation per structure; each
        # evaluation maps its candidate once (jobs=1 runs inline).
        assert calls.count("plan_rom_mapping") == s["candidates"] + 1
        assert calls.count("build_rom_mapping") == s["structures"]
        assert len(hashed) == s["structures"]
        assert calls.count("map_fsm_to_rom") == s["evaluated"]


class TestSidecarMemos:
    def test_warm_search_maps_and_simulates_nothing(self, tmp_path,
                                                    monkeypatch):
        cache = str(tmp_path / "cache")
        cold = tune_benchmark("dk14", cache=cache, **SMALL)
        compiles = codegen.stats().compiles
        mappings = count_mappings(monkeypatch)
        warm = tune_benchmark("dk14", cache=cache, **SMALL)
        assert warm.canonical_json() == cold.canonical_json()
        # Nothing is simulated, so no netlist is compiled either.
        assert codegen.stats().compiles == compiles
        s = warm.stats
        # Every bound answered from the tune-bounds sidecar (one lookup
        # per grid candidate plus the baseline), every fitness from the
        # tune-point sidecar: zero mappings, zero pool dispatches.
        assert len(mappings) == 0
        assert s["bounds_cache_hits"] == s["candidates"] + 1
        assert s["fitness_cache_hits"] == s["evaluated"]

    def test_warm_search_runs_no_reference_simulation(self, tmp_path,
                                                      monkeypatch):
        from repro.fsm.simulate import FsmSimulator

        cache = str(tmp_path / "cache")
        cold = tune_benchmark("dk14", cache=cache, **SMALL)
        runs = []
        real_run = FsmSimulator.run

        def counting_run(self, *args, **kwargs):
            runs.append(self)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(FsmSimulator, "run", counting_run)
        warm = tune_benchmark("dk14", cache=cache, **SMALL)
        assert warm.canonical_json() == cold.canonical_json()
        # The duty floor is a fact of the machine and the settings.
        assert runs == []

    def test_cold_search_stores_only_the_two_sidecars(self, tmp_path):
        from repro.pipeline.cache import ArtifactCache

        cache = tmp_path / "cache"
        result = tune_benchmark("dk14", cache=str(cache), **SMALL)
        store = ArtifactCache(cache)
        kinds = {"bounds": 0, "point": 0, "other": 0}
        for path in cache.glob("objects/*/*.pkl"):
            value = store.get(path.stem).value
            if isinstance(value, dict) and (
                "impl_fingerprint" in value or "infeasible" in value
            ):
                kinds["bounds"] += 1
            elif isinstance(value, dict) and "power_mw" in value:
                kinds["point"] += 1
            else:
                kinds["other"] += 1
        # One tune-bounds entry per distinct candidate (the baseline is
        # also a grid point, so it shares its entry) and one tune-point
        # entry per evaluated structure; no mapped implementation.
        distinct = {baseline_candidate(), *SPACE.enumerate()}
        assert kinds == {
            "bounds": len(distinct),
            "point": result.stats["evaluated"],
            "other": 0,
        }

    def test_infeasibility_marker_is_cached(self, tmp_path, monkeypatch):
        fsm = parse_kiss(DETECTOR, "det")
        space = TuneSpace(moore_modes=("auto", "external"),
                          encodings=("binary",), clock_control=(False,),
                          compaction=(False,))
        cache = str(tmp_path / "cache")
        kwargs = dict(space=space, cache=cache, num_cycles=96, seed=7)
        cold = tune_benchmark(fsm, **kwargs)
        mappings = count_mappings(monkeypatch)
        warm = tune_benchmark(fsm, **kwargs)
        assert warm.canonical_json() == cold.canonical_json()
        assert warm.stats["infeasible"] == cold.stats["infeasible"]
        assert len(mappings) == 0

    def test_cacheless_search_matches_cached_one(self, tmp_path):
        cached = tune_benchmark("dk14", cache=str(tmp_path / "c"), **SMALL)
        cacheless = tune_benchmark("dk14", cache=False, **SMALL)
        assert cached.canonical_json() == cacheless.canonical_json()


class TestReplay:
    def test_best_point_replays_bit_identically(self, tmp_path):
        cache = str(tmp_path / "cache")
        result = tune_benchmark("dk14", cache=cache, **SMALL)
        fresh = replay_point(result.best_power, "dk14", **result.settings)
        assert fresh == result.best_power.fitness

    def test_replay_from_written_artifact(self, tmp_path):
        from repro.tune import load_frontier

        result = tune_benchmark("dk14", cache=False, **SMALL)
        loaded = load_frontier(result.write(tmp_path / "frontier.json"))
        point = loaded.best_power
        fresh = replay_point(point, "dk14", **loaded.settings)
        assert fresh == point.fitness
