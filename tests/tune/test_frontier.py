"""Unit tests for Pareto-dominance and the frontier artifact."""

import json

import pytest

from repro.tune.frontier import (
    FrontierPoint,
    TuneResult,
    dominates,
    load_frontier,
    pareto_front,
)
from repro.tune.space import TuneCandidate


def point(power, area, delay, **knobs):
    return FrontierPoint(
        candidate=TuneCandidate(**knobs),
        fitness={"power_mw": power, "area": area, "delay_ns": delay,
                 "brams": 1},
    )


class TestDominance:
    def test_strictly_better_everywhere(self):
        assert dominates((1, 1, 1), (2, 2, 2))

    def test_better_somewhere_equal_elsewhere(self):
        assert dominates((1, 2, 2), (2, 2, 2))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 1, 1), (1, 1, 1))

    def test_tradeoff_does_not_dominate(self):
        assert not dominates((1, 3, 1), (2, 2, 2))
        assert not dominates((2, 2, 2), (1, 3, 1))


class TestParetoFront:
    def test_dominated_points_removed(self):
        best = point(1.0, 10, 5.0)
        worse = point(2.0, 20, 6.0, encoding="gray")
        assert pareto_front([worse, best]) == [best]

    def test_tradeoffs_all_survive(self):
        a = point(1.0, 20, 5.0)
        b = point(2.0, 10, 5.0, encoding="gray")
        assert set(
            p.candidate.encoding for p in pareto_front([a, b])
        ) == {"binary", "gray"}

    def test_ties_all_survive(self):
        a = point(1.0, 10, 5.0)
        b = point(1.0, 10, 5.0, encoding="gray")
        assert len(pareto_front([a, b])) == 2

    def test_result_is_input_order_independent(self):
        pts = [point(1.0, 20, 5.0), point(2.0, 10, 5.0, encoding="gray"),
               point(3.0, 30, 4.0, clock_control=True)]
        assert pareto_front(pts) == pareto_front(list(reversed(pts)))


def small_result():
    base = point(2.0, 20, 6.0)
    best = point(1.0, 10, 5.0, encoding="gray", clock_control=True)
    return TuneResult(
        benchmark="det",
        frontier=[best], baseline=base,
        settings={"num_cycles": 64, "seed": 1, "frequency_mhz": 100.0,
                  "verify": True},
        space={"size": 2},
        stats={"wall_seconds": 1.23, "evaluated": 2},
    )


class TestArtifact:
    def test_round_trip_through_artifact_dict(self):
        result = small_result()
        artifact = result.to_artifact()
        # frontier-v1 names the memory block; stored artifacts carry it.
        assert artifact["backend"] == "virtex2-bram"
        back = TuneResult.from_dict(artifact)
        assert back.canonical_json() == result.canonical_json()
        assert back.stats == result.stats

    def test_canonical_json_excludes_stats(self):
        result = small_result()
        assert "wall_seconds" not in result.canonical_json()
        assert "wall_seconds" in json.dumps(result.to_artifact())

    def test_write_and_load(self, tmp_path):
        result = small_result()
        path = result.write(tmp_path / "frontier.json")
        loaded = load_frontier(path)
        assert loaded.canonical_json() == result.canonical_json()

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError):
            TuneResult.from_dict({"schema": "something/else"})

    def test_best_power_and_saving(self):
        result = small_result()
        assert result.best_power.power_mw == 1.0
        assert result.best_power_saving_percent() == pytest.approx(50.0)

    def test_table_mentions_baseline_and_saving(self):
        table = small_result().format_table()
        assert "baseline (fixed heuristic)" in table
        assert "best-power saving vs baseline" in table
