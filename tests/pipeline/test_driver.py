"""Tests for the process-pool driver, manifest, and parallel equivalence."""

import json
import logging

from repro import faults
from repro.faults import FaultPlan
from repro.flows import tables
from repro.flows.flow import evaluate_many
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.driver import RunManifest, run_sharded
from repro.pipeline.pipeline import PipelineReport, StageRecord


def _square(x):
    return x * x


def _record(stage, hit, seconds=0.25):
    return StageRecord(
        stage=stage, version="1", key="k", cache_hit=hit,
        seconds=seconds, fingerprint="f",
    )


class TestRunSharded:
    def test_inline_when_single_job(self):
        assert run_sharded(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_pool_preserves_order(self):
        assert run_sharded(_square, list(range(8)), jobs=2) == \
            [x * x for x in range(8)]

    def test_pool_matches_inline(self):
        items = [5, 3, 8, 1]
        assert run_sharded(_square, items, jobs=3) == \
            run_sharded(_square, items, jobs=1)


class TestRunManifest:
    def test_aggregates_reports(self):
        r1 = PipelineReport([_record("parse", False), _record("power", False)])
        r2 = PipelineReport([_record("parse", True), _record("power", False)])
        manifest = RunManifest.from_reports([r1, r2], jobs=2, wall_seconds=1.5)
        assert manifest.items == 2
        assert manifest.stage_runs == 4
        assert manifest.cache_hits == 1
        assert manifest.cache_misses == 3
        assert manifest.hit_rate == 0.25
        assert manifest.stages["parse"].hits == 1
        assert manifest.stages["parse"].seconds == 0.5

    def test_summary_mentions_counts(self):
        manifest = RunManifest.from_reports(
            [PipelineReport([_record("parse", True)])], jobs=4
        )
        text = manifest.summary()
        assert "1 evaluation(s)" in text
        assert "1 cache hit(s)" in text
        assert "jobs=4" in text

    def test_write_json(self, tmp_path):
        manifest = RunManifest.from_reports(
            [PipelineReport([_record("parse", False)])], jobs=1
        )
        path = manifest.write(tmp_path / "run" / "manifest.json")
        data = json.loads(path.read_text())
        assert data["stage_runs"] == 1
        assert data["stages"]["parse"]["misses"] == 1


class TestParallelEquivalence:
    def test_evaluate_many_jobs_equivalence(self):
        kwargs = dict(num_cycles=150, seed=11)
        serial, m1 = evaluate_many(["dk14", "donfile"], jobs=1, **kwargs)
        parallel, m2 = evaluate_many(["dk14", "donfile"], jobs=2, **kwargs)
        assert list(serial) == list(parallel) == ["dk14", "donfile"]
        assert m1.items == m2.items == 2
        assert m1.stage_runs == m2.stage_runs == 16
        for name in serial:
            s, p = serial[name], parallel[name]
            assert s.ff_power["100"].total_mw == p.ff_power["100"].total_mw
            assert s.rom_power["100"].total_mw == p.rom_power["100"].total_mw
            assert s.saving_percent() == p.saving_percent()
            assert s.cc_saving_percent() == p.cc_saving_percent()
            assert s.achieved_idle_fraction == p.achieved_idle_fraction

    def test_tables_identical_across_job_counts(self):
        key = dict(num_cycles=120, seed=7, idle_fraction=0.5)
        tables.clear_results_memo()
        serial = tables.run_all(jobs=1, **key)
        serial_text = [
            t(serial).text
            for t in (tables.table1, tables.table2, tables.table3,
                      tables.table4)
        ]
        tables.clear_results_memo()
        parallel = tables.run_all(jobs=2, **key)
        parallel_text = [
            t(parallel).text
            for t in (tables.table1, tables.table2, tables.table3,
                      tables.table4)
        ]
        assert serial_text == parallel_text
        manifest = tables.last_run_manifest()
        assert manifest is not None
        assert manifest.jobs == 2
        assert manifest.items == len(serial)
        tables.clear_results_memo()


class TestManifestHooks:
    def test_add_records_counts_an_item(self):
        from repro.pipeline.driver import RunManifest
        from repro.pipeline.pipeline import StageRecord

        manifest = RunManifest()
        manifest.add_records([
            StageRecord("parse", "1", "k1", False, 0.25, "fp1"),
            StageRecord("power", "1", "k2", True, 0.5, "fp2"),
        ])
        assert manifest.items == 1
        assert manifest.stage_runs == 2
        assert manifest.cache_hits == 1
        assert manifest.stages["parse"].misses == 1

    def test_merge_folds_totals(self):
        from repro.pipeline.driver import RunManifest
        from repro.pipeline.pipeline import StageRecord

        a = RunManifest(wall_seconds=1.0)
        b = RunManifest(wall_seconds=2.0)
        for manifest in (a, b):
            manifest.add_records([
                StageRecord("parse", "1", "k", False, 0.25, "fp"),
            ])
        a.merge(b)
        assert a.items == 2
        assert a.wall_seconds == 3.0
        assert a.stages["parse"].runs == 2

    def test_concurrent_add_records_is_consistent(self):
        import threading

        from repro.pipeline.driver import RunManifest
        from repro.pipeline.pipeline import StageRecord

        manifest = RunManifest()
        record = StageRecord("parse", "1", "k", True, 0.001, "fp")

        def hammer():
            for _ in range(200):
                manifest.add_records([record])

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert manifest.items == 1600
        assert manifest.stages["parse"].runs == 1600


class _Events(logging.Handler):
    """Collects the ``event=`` names logged while attached."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.events = []

    def emit(self, record):
        self.events.append(record.getMessage().split()[0])


class TestInlineShardsShareTheCache:
    def test_callers_cache_counts_the_run(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        evaluate_many(["dk14"], cache=cache, num_cycles=80, seed=3)
        assert cache.stats.misses == cache.stats.stores == 8
        evaluate_many(["dk14"], cache=cache, num_cycles=80, seed=3)
        assert cache.stats.hits == 8

    def test_degrading_tables_run_degrades_once(self, tmp_path, monkeypatch):
        # Every put fails: the run's one cache degrades after the first
        # three errors and stays off, instead of nine per-benchmark
        # caches degrading one after another.
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        plan = FaultPlan.from_json(
            '{"seed": 7, "rules": [{"point": "cache.put", '
            '"kind": "disk_full", "probability": 1}]}'
        )
        handler = _Events()
        logger = logging.getLogger("repro.pipeline.cache")
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        tables.clear_results_memo()
        try:
            with faults.injected(plan):
                tables.run_all(num_cycles=100, jobs=1,
                               cache=str(tmp_path / "cache"))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
            tables.clear_results_memo()
            faults.uninstall()
        assert handler.events.count("event=cache_degraded") == 1
        assert handler.events.count("event=cache_io_error") == 3
