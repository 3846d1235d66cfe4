"""Crash-safety tests for the artifact cache: races, torn reads,
I/O-error degradation, and maintenance hygiene."""

import os
import pickle
from pathlib import Path

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.pipeline.cache import ArtifactCache

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


@pytest.fixture(autouse=True)
def no_ambient_plan(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.uninstall()
    yield
    faults.uninstall()


class TestConcurrentUnlinkTolerance:
    def test_size_bytes_survives_entry_vanishing_mid_scan(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "a", 1)
        cache.put(OTHER, "b", 2)

        victim = str(cache._path(KEY))
        import pathlib
        original = pathlib.Path.stat

        # Simulate a concurrent worker unlinking between listing and
        # stat: the victim vanishes exactly when stat() reaches it.
        def racing_stat(self, **kwargs):
            if str(self) == victim:
                if os.path.exists(victim):
                    os.unlink(victim)
                raise FileNotFoundError(victim)
            return original(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racing_stat)
        size = cache.size_bytes
        monkeypatch.undo()
        assert size > 0  # the survivor still counts; no crash

    def test_entry_count_survives_shard_vanishing(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "a", 1)
        import shutil
        shutil.rmtree(cache.objects_dir / KEY[:2])
        assert cache.entry_count == 0


class TestClearHygiene:
    def test_clear_removes_tmp_orphans_and_empty_shards(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "a", 1)
        cache.put(OTHER, "b", 2)
        # An interrupted put() leaves a .tmp-* file behind.
        shard = cache.objects_dir / KEY[:2]
        orphan = shard / ".tmp-interrupted.pkl"
        orphan.write_bytes(b"partial")

        assert cache.clear() == 2
        assert not orphan.exists()
        # Shard directories are gone, not just emptied.
        assert not any(cache.objects_dir.iterdir())

    def test_clear_resets_degraded_state(self, tmp_path):
        cache = ArtifactCache(tmp_path, degrade_threshold=1)
        plan = FaultPlan([FaultRule(point="cache.put", kind="disk_full",
                                    max_fires=1)])
        with faults.injected(plan, export_env=False):
            cache.put(KEY, "a", 1)
        assert cache.degraded
        assert cache.get(KEY) is None  # an off cache only misses
        removed = cache.clear()
        assert removed == 0
        assert not cache.degraded
        cache.put(KEY, "a", 2)
        assert Path(cache._path(KEY)).exists()  # back on disk


class TestCorruptEntryRace:
    def test_corrupt_read_does_not_unlink_concurrent_replacement(
        self, tmp_path, monkeypatch
    ):
        """Regression: get() reads a corrupt entry, a concurrent writer
        replaces the file before the unlink — the *new* entry must
        survive the corrupt-path cleanup."""
        cache = ArtifactCache(tmp_path)
        path = Path(cache._path(KEY))
        path.parent.mkdir(parents=True)
        path.write_bytes(b"torn write from a crashed worker")

        def racing_decode(data):
            # Interleave the replacement exactly between the read and
            # the corrupt-entry cleanup.
            writer = ArtifactCache(tmp_path)
            writer.put(KEY, "fresh", {"v": 2})
            return pickle.loads(data)

        monkeypatch.setattr(ArtifactCache, "_decode",
                            staticmethod(racing_decode))
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1
        monkeypatch.undo()

        # The replacement written mid-race is still there and valid.
        assert path.exists()
        art = cache.get(KEY)
        assert (art.fingerprint, art.value) == ("fresh", {"v": 2})

    def test_corrupt_entry_without_race_is_still_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", [1, 2])
        path = Path(cache._path(KEY))
        path.write_bytes(b"not a pickle")
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1
        assert not path.exists()

    def test_injected_torn_read_is_a_miss_not_a_wrong_value(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", {"payload": list(range(100))})
        plan = FaultPlan([FaultRule(point="cache.get", kind="truncate",
                                    max_fires=1)])
        with faults.injected(plan, export_env=False):
            assert cache.get(KEY) is None
        assert cache.stats.errors == 1

    def test_injected_bitflip_is_never_served_as_valid(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        value = {"payload": bytes(512)}
        cache.put(KEY, "fp", value)
        plan = FaultPlan([FaultRule(point="cache.get", kind="bitflip",
                                    max_fires=1)])
        with faults.injected(plan, export_env=False):
            got = cache.get(KEY)
        # A flipped payload bit decodes fine under pickle alone — the
        # CRC envelope must catch it and turn it into a miss.
        assert got is None
        assert cache.stats.errors == 1
        # The entry was dropped as corrupt; a rewrite reads back clean.
        cache.put(KEY, "fp", value)
        art = cache.get(KEY)
        assert (art.fingerprint, art.value) == ("fp", value)


class TestDegradation:
    def test_repeated_io_errors_switch_the_cache_off(self, tmp_path):
        cache = ArtifactCache(tmp_path, degrade_threshold=3)
        plan = FaultPlan([FaultRule(point="cache.put", kind="oserror",
                                    max_fires=3)])
        with faults.injected(plan, export_env=False):
            for i in range(3):
                cache.put(f"{i:02d}" + "e" * 62, "fp", i)
        assert cache.degraded
        assert cache.stats.io_errors == 3

        # An off cache stores nothing and never reads the disk: the
        # cache.get rule below would fire on any read attempt.
        reads = FaultPlan([FaultRule(point="cache.get", kind="oserror")])
        stores = cache.stats.stores
        with faults.injected(reads, export_env=False):
            cache.put(KEY, "fp", "value")
            assert cache.get(KEY) is None
        assert reads.total_fires == 0
        assert cache.stats.stores == stores
        assert not Path(cache._path(KEY)).exists()
        assert cache.describe()["degraded"] is True

    def test_single_error_recovers_without_degrading(self, tmp_path):
        cache = ArtifactCache(tmp_path, degrade_threshold=3)
        plan = FaultPlan([FaultRule(point="cache.put", kind="disk_full",
                                    max_fires=1)])
        with faults.injected(plan, export_env=False):
            cache.put(KEY, "fp", 1)     # absorbed, not raised
            cache.put(OTHER, "fp", 2)   # succeeds, resets the streak
        assert not cache.degraded
        assert cache.stats.io_errors == 1
        art = cache.get(OTHER)
        assert (art.fingerprint, art.value) == ("fp", 2)
        assert cache.get(KEY) is None  # lost write is a plain miss

    def test_read_errors_count_toward_degradation(self, tmp_path):
        cache = ArtifactCache(tmp_path, degrade_threshold=2)
        cache.put(KEY, "fp", 1)
        plan = FaultPlan([FaultRule(point="cache.get", kind="oserror",
                                    max_fires=2)])
        with faults.injected(plan, export_env=False):
            assert cache.get(KEY) is None
            assert cache.get(KEY) is None
        assert cache.degraded

    def test_put_never_raises_on_unwritable_root(self, tmp_path):
        # A root we cannot create shards under: parent is a file.
        blocker = tmp_path / "blocked"
        blocker.write_text("in the way")
        cache = ArtifactCache(blocker / "cache", degrade_threshold=1)
        cache.put(KEY, "fp", 1)  # must not raise
        assert cache.degraded
        assert cache.get(KEY) is None


class TestTmpOrphanTolerance:
    """A writer that crashed mid-put leaves ``.tmp-*`` files behind; the
    accounting walks must not count them and clear() must sweep them."""

    def _orphan(self, cache: ArtifactCache) -> None:
        shard = cache.objects_dir / KEY[:2]
        shard.mkdir(parents=True, exist_ok=True)
        (shard / ".tmp-dead-flush.pkl").write_bytes(b"partial envelope")

    def test_size_and_count_ignore_tmp_orphans(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        real_size = cache.size_bytes
        self._orphan(cache)
        assert cache.entry_count == 1
        assert cache.size_bytes == real_size

    def test_clear_sweeps_tmp_orphans_without_counting_them(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        self._orphan(cache)
        assert cache.clear() == 1  # the orphan is swept but not counted
        assert not any(cache.objects_dir.iterdir())
