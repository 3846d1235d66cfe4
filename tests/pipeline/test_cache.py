"""Unit tests for the content-addressed artifact cache."""

import pickle
import sys
import zlib
from pathlib import Path

import pytest

from repro.pipeline.cache import (
    CACHE_DIR_ENV,
    ArtifactCache,
    CacheLoadError,
    resolve_cache,
)

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp1", {"value": [1, 2, 3]})
        art = cache.get(KEY)
        assert (art.fingerprint, art.value) == ("fp1", {"value": [1, 2, 3]})
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
        art = cache.get(KEY)
        assert (art.fingerprint, art.value) == ("fp", [1, 2])


class TestEnvelope:
    def test_get_reads_the_fingerprint_without_unpickling(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", {"value": [1, 2, 3]})
        loads = []
        real_loads = pickle.loads

        def counting_loads(data, *args, **kwargs):
            loads.append(len(data))
            return real_loads(data, *args, **kwargs)

        monkeypatch.setattr(pickle, "loads", counting_loads)
        art = cache.get(KEY)
        assert art.fingerprint == "fp"
        assert loads == []
        assert art.value == {"value": [1, 2, 3]}
        assert art.value is art.value
        assert len(loads) == 1

    def test_flipped_fingerprint_bit_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "f" * 64, [1, 2])
        path = Path(cache._path(KEY))
        data = bytearray(path.read_bytes())
        at = data.index(b"f" * 64) + 17
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1
        assert cache.stats.misses == 1
        assert not path.exists()

    def test_old_envelope_is_a_miss_and_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = pickle.dumps(("fp", [1, 2]), protocol=4)
        crc = zlib.crc32(payload).to_bytes(4, "big")
        path = Path(cache._path(KEY))
        path.parent.mkdir(parents=True)
        path.write_bytes(b"RFC1" + crc + payload)
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1
        assert cache.stats.misses == 1
        assert not path.exists()

    def test_failed_deferred_load_is_typed_and_drops_the_entry(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", Renamed())
        path = Path(cache._path(KEY))
        # The class the entry names is gone: its bytes pass the CRC but
        # no longer unpickle.
        monkeypatch.delattr(sys.modules[__name__], "Renamed")
        art = cache.get(KEY)
        assert art is not None and art.fingerprint == "fp"
        with pytest.raises(CacheLoadError) as info:
            art.value
        assert info.value.key == KEY
        assert KEY in str(info.value)
        assert cache.stats.errors == 1
        assert not path.exists()


class Renamed:
    """A value class the envelope test deletes after storing one."""


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
