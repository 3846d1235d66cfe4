"""Unit tests for the content-addressed artifact cache."""

import os
import time

from repro.pipeline.cache import (
    CACHE_DIR_ENV,
    ArtifactCache,
    resolve_cache,
)

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp1", {"value": [1, 2, 3]})
        assert cache.get(KEY) == ("fp1", {"value": [1, 2, 3]})
        assert KEY in cache
        assert OTHER not in cache

    def test_get_missing_is_none(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get(KEY) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_stats_track_hits_and_stores(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        cache.get(KEY)
        cache.get(OTHER)
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_sharded_layout(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        assert (tmp_path / "objects" / KEY[:2] / f"{KEY}.pkl").is_file()


class TestCorruption:
    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", [1, 2])
        path = cache._path(KEY)
        path.write_bytes(b"not a pickle")
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1
        assert not path.exists()
        # A later put repopulates the slot.
        cache.put(KEY, "fp", [1, 2])
        assert cache.get(KEY) == ("fp", [1, 2])


class TestProbeMemo:
    """Review regression: __contains__ must not re-read multi-MiB
    entries on every probe; a validated entry is remembered by stat
    identity and re-probed with a single stat."""

    @staticmethod
    def _age(path):
        # Backdate past the racily-valid guard so the memo may engage.
        old = time.time() - 10.0
        os.utime(path, (old, old))

    def test_second_probe_skips_the_full_read(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", {"payload": bytes(4096)})
        self._age(cache._path(KEY))
        assert KEY in cache  # validates and memoizes
        reads = []
        monkeypatch.setattr(
            ArtifactCache, "verify_envelope",
            staticmethod(lambda data: reads.append(1) or True),
        )
        assert KEY in cache
        assert reads == [], "memoized probe still re-read the entry"

    def test_fresh_entries_are_not_memoized(self, tmp_path):
        # Within the racy window the stat identity cannot be trusted:
        # a same-size in-place rewrite in the same coarse-clock tick
        # would keep (inode, mtime_ns, size) unchanged.
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        assert KEY in cache
        assert KEY not in cache._validated

    def test_replaced_entry_is_revalidated(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", {"payload": bytes(256)})
        path = cache._path(KEY)
        self._age(path)
        assert KEY in cache
        assert KEY in cache._validated
        # Corrupt the entry in place (size and mtime change).
        path.write_bytes(b"garbage now")
        assert KEY not in cache
        assert cache.stats.errors == 1
        assert not path.exists()

    def test_unlinked_entry_forgets_its_memo(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        path = cache._path(KEY)
        self._age(path)
        assert KEY in cache
        path.unlink()
        assert KEY not in cache
        assert KEY not in cache._validated

    def test_get_populates_the_memo_too(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        self._age(cache._path(KEY))
        assert cache.get(KEY) == ("fp", 1)
        assert KEY in cache._validated

    def test_clear_resets_the_memo(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        self._age(cache._path(KEY))
        assert KEY in cache
        cache.clear()
        assert cache._validated == {}
        assert KEY not in cache


class TestMaintenance:
    def test_entry_count_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "a", 1)
        cache.put(OTHER, "b", 2)
        assert cache.entry_count == 2
        assert cache.size_bytes > 0
        assert cache.clear() == 2
        assert cache.entry_count == 0
        assert cache.get(KEY) is None

    def test_describe(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "a", 1)
        info = cache.describe()
        assert info["root"] == str(tmp_path)
        assert info["entries"] == 1
        assert info["session"]["stores"] == 1


class TestResolveCache:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_cache() is None

    def test_no_cache_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert resolve_cache(no_cache=True) is None
        assert resolve_cache(tmp_path, no_cache=True) is None

    def test_false_disables_despite_environment(self, tmp_path, monkeypatch):
        # False is the re-resolvable "caching off" marker: it must not
        # fall through to REPRO_CACHE_DIR the way None does.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert resolve_cache(False) is None

    def test_flow_honours_disabled_cache_over_environment(
        self, tmp_path, monkeypatch
    ):
        from repro.flows.flow import evaluate_many

        env_dir = tmp_path / "env-cache"
        monkeypatch.setenv(CACHE_DIR_ENV, str(env_dir))
        evaluate_many(["dk14"], cache=False, num_cycles=80, seed=3)
        assert not env_dir.exists()

    def test_explicit_path(self, tmp_path):
        cache = resolve_cache(tmp_path / "c")
        assert isinstance(cache, ArtifactCache)
        assert cache.root == tmp_path / "c"

    def test_instance_passthrough(self, tmp_path):
        ready = ArtifactCache(tmp_path)
        assert resolve_cache(ready) is ready

    def test_environment_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        cache = resolve_cache()
        assert isinstance(cache, ArtifactCache)
        assert cache.root == tmp_path / "env"


class TestResolveCacheTrue:
    def test_true_prefers_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        cache = resolve_cache(True)
        assert cache is not None
        assert cache.root == tmp_path / "env"

    def test_true_falls_back_to_default_dir(self, monkeypatch):
        from repro.pipeline.cache import DEFAULT_CACHE_DIR

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        cache = resolve_cache(True)
        assert cache is not None
        assert cache.root == DEFAULT_CACHE_DIR

    def test_no_cache_beats_true(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_cache(True, no_cache=True) is None
