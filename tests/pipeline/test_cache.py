"""Unit tests for the content-addressed artifact cache."""

from pathlib import Path

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
        assert cache.get(OTHER) is None

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
        path = Path(cache._path(KEY))
        path.write_bytes(b"not a pickle")
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1
        assert not path.exists()
        # A later put repopulates the slot.
        cache.put(KEY, "fp", [1, 2])
        assert cache.get(KEY) == ("fp", [1, 2])


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
        # ``--no-cache`` reaches the library as ``cache_dir=False``; the
        # environment variable that ``None`` would pick up is ignored.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert resolve_cache(False) is None
        assert resolve_cache(None) is not None

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
        # False is "definitely off" exactly as True is "definitely on".
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_cache(True) is not None
        assert resolve_cache(False) is None
