"""Content-addressed on-disk artifact cache.

Layout::

    <root>/objects/<key[:2]>/<key>.pkl

where ``key`` is the stage cache key (see :meth:`Stage.cache_key`).
Each object file is one entry::

    b"RFC2" | CRC32 (4 bytes, big-endian) | fingerprint length (2 bytes,
    big-endian) | fingerprint (ASCII) | pickle of the value

The CRC covers everything after it.  :meth:`ArtifactCache.get` checks
it on every read and returns an :class:`~repro.pipeline.artifact.Artifact`
whose fingerprint comes from the header; the value is unpickled only
when something reads it, so a warm run that keys the next stage off a
fingerprint never deserializes a value it does not use.  Writes
are atomic (temp file + ``os.replace``) so concurrent workers sharing a
cache directory can only ever observe complete entries; since keys are
content-addressed, two workers racing on the same key write identical
bytes and either winner is correct.

Crash-safety contract: the cache is an accelerator, never a
correctness dependency.  Every entry is wrapped in a checksummed
envelope (magic + CRC32) so silent corruption — a torn write, a flipped
bit — is detected on read instead of being deserialized into a
plausible-but-wrong value.  Corrupt or unreadable entries, and entries
of an older envelope format, are treated as misses (and removed only
when the on-disk file is provably the one that failed to decode — see
the inode guard in :meth:`_drop_corrupt`).  A checksum-valid value that
will not unpickle (a class renamed without a stage version bump) raises
:class:`CacheLoadError` from ``.value`` and drops its entry the same
way.  I/O errors on reads and writes are absorbed and counted, and after
``degrade_threshold`` consecutive I/O errors the cache *degrades to
off*: every later lookup is a miss and every later store a no-op, so a
sick disk cannot take the pipeline down with it.  The pipeline holds
each stage value in memory for the length of a run, so an off cache
costs recomputation across runs, never a wrong or missing result.
Degradation is logged, visible in :meth:`describe` (``romfsm cache
stats``) and in the service's ``/metrics``; :meth:`clear` switches the
cache back on.

Both I/O paths carry :mod:`repro.faults` failure points (``cache.get``,
``cache.put``) so the chaos suite can prove all of the above.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro import faults
from repro.logutil import get_logger, kv
from repro.pipeline.artifact import Artifact

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "DEGRADE_THRESHOLD",
    "ArtifactCache",
    "CacheLoadError",
    "CacheStats",
    "resolve_cache",
]

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "romfsm"

# Consecutive I/O errors before the cache switches itself off.
DEGRADE_THRESHOLD = 3

_PICKLE_PROTOCOL = 4

# Entry envelope: magic, CRC32 of the rest, fingerprint length, the
# fingerprint, then the pickle (see the module docstring).
_ENTRY_MAGIC = b"RFC2"
_CRC_END = len(_ENTRY_MAGIC) + 4
_HEADER_LEN = _CRC_END + 2

logger = get_logger("pipeline.cache")


class CacheLoadError(RuntimeError):
    """A checksum-valid entry whose value would not unpickle.

    The bytes are the ones that were written, so the classes they name
    no longer load: one was renamed or moved without a stage version
    bump.  The entry is dropped; the next run recomputes it.
    """

    def __init__(self, key: str, cause: BaseException):
        super().__init__(
            f"cache entry {key} would not unpickle: "
            f"{type(cause).__name__}: {cause}"
        )
        self.key = key


@dataclass
class CacheStats:
    """Hit/miss/store/error counters for one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0        # corrupt entries dropped
    io_errors: int = 0     # OSError on a read or write

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "io_errors": self.io_errors,
        }


class ArtifactCache:
    """Content-addressed pickle store for pipeline stage artifacts."""

    def __init__(
        self,
        root: Union[str, Path],
        degrade_threshold: int = DEGRADE_THRESHOLD,
    ):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self._objects = str(self.objects_dir)
        self.stats = CacheStats()
        self.degraded = False
        self._degrade_threshold = max(1, degrade_threshold)
        self._io_error_streak = 0

    def _path(self, key: str) -> str:
        return f"{self._objects}/{key[:2]}/{key}.pkl"

    # -- degradation ----------------------------------------------------

    def _io_failure(self, op: str, exc: OSError) -> None:
        self.stats.io_errors += 1
        self._io_error_streak += 1
        logger.warning(kv(
            "cache_io_error", op=op, error=type(exc).__name__,
            streak=self._io_error_streak, detail=str(exc),
        ))
        if not self.degraded and self._io_error_streak >= self._degrade_threshold:
            self.degraded = True
            logger.warning(kv(
                "cache_degraded", root=str(self.root),
                after_errors=self._io_error_streak,
            ))

    def _io_success(self) -> None:
        self._io_error_streak = 0

    @staticmethod
    def _encode(fingerprint: str, value: Any) -> bytes:
        fp = fingerprint.encode("ascii")
        body = len(fp).to_bytes(2, "big") + fp
        payload = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
        crc = zlib.crc32(payload, zlib.crc32(body))
        return b"".join((_ENTRY_MAGIC, crc.to_bytes(4, "big"), body, payload))

    @staticmethod
    def _decode(data: bytes) -> Tuple[str, memoryview]:
        """Checksum-verified ``(fingerprint, pickle bytes)`` (a seam for
        race tests).

        Raises on a missing/garbled envelope (an older format included)
        or a CRC mismatch so any corruption — including a single flipped
        bit that pickle would cheerfully decode into a wrong value —
        lands in the corrupt-entry path, never in a hit.
        """
        if len(data) < _HEADER_LEN or data[:len(_ENTRY_MAGIC)] != _ENTRY_MAGIC:
            raise ValueError("missing cache-entry envelope")
        expected = int.from_bytes(data[len(_ENTRY_MAGIC):_CRC_END], "big")
        view = memoryview(data)
        if zlib.crc32(view[_CRC_END:]) != expected:
            raise ValueError("cache-entry checksum mismatch")
        fp_end = _HEADER_LEN + int.from_bytes(data[_CRC_END:_HEADER_LEN], "big")
        return data[_HEADER_LEN:fp_end].decode("ascii"), view[fp_end:]

    def _drop_corrupt(self, path: str, read_stat) -> None:
        """Unlink a corrupt entry — only if it is provably the file we
        read.  A concurrent writer (a pool worker, or another process
        sharing the cache directory) may have replaced it with a fresh
        valid object between our read and the unlink; deleting that one
        would throw good work away."""
        try:
            current = os.stat(path)
            if read_stat is not None and (
                current.st_ino, current.st_dev
            ) == (read_stat.st_ino, read_stat.st_dev):
                os.unlink(path)
        except OSError:
            pass

    # -- lookups --------------------------------------------------------

    def get(self, key: str) -> Optional[Artifact]:
        """The entry under ``key``, or ``None``.

        The artifact's fingerprint is read from the verified header; its
        value is unpickled by the first read of ``.value``.
        """
        if self.degraded:
            self.stats.misses += 1
            return None
        path = self._path(key)
        read_stat = None
        try:
            action = faults.hit("cache.get", key=key)
            with open(path, "rb") as fh:
                read_stat = os.fstat(fh.fileno())
                data = fh.read()
            if action is not None:
                data = faults.corrupt_bytes(action, data)
            fingerprint, payload = self._decode(data)
        except FileNotFoundError:
            # A miss, not an I/O verdict: it neither counts toward nor
            # resets the error streak.  (The pipeline's get-then-put
            # rhythm means misses interleave with every write; letting
            # them reset the streak would mask a disk that fails every
            # single put.)
            self.stats.misses += 1
            return None
        except OSError as exc:
            self._io_failure("get", exc)
            self.stats.misses += 1
            return None
        except Exception:
            # Corrupt/truncated entry: drop it (inode-guarded) and
            # treat as a miss.
            self.stats.errors += 1
            self.stats.misses += 1
            self._drop_corrupt(path, read_stat)
            return None
        self.stats.hits += 1
        self._io_success()
        return Artifact.deferred(
            fingerprint, partial(self._load, key, path, read_stat, payload)
        )

    def _load(self, key: str, path: str, read_stat, payload) -> Any:
        """Unpickle a verified entry's value; on failure drop the entry
        and raise :class:`CacheLoadError`."""
        try:
            return pickle.loads(payload)
        except Exception as exc:
            self.stats.errors += 1
            self._drop_corrupt(path, read_stat)
            raise CacheLoadError(key, exc) from exc

    def put(self, key: str, fingerprint: str, value: Any) -> None:
        """Store an entry.  Storage failure degrades; it never raises."""
        if self.degraded:
            return
        payload = self._encode(fingerprint, value)
        path = self._path(key)
        tmp_name = None
        try:
            faults.hit("cache.put", key=key)
            shard = os.path.dirname(path)
            os.makedirs(shard, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=shard, prefix=".tmp-", suffix=".pkl"
            )
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp_name, path)
        except OSError as exc:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            self._io_failure("put", exc)
            return
        except BaseException:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            raise
        self.stats.stores += 1
        self._io_success()

    # -- maintenance ---------------------------------------------------

    def _shards(self) -> Iterator[Path]:
        try:
            shards = list(self.objects_dir.iterdir())
        except OSError:
            return
        for shard in shards:
            if shard.is_dir():
                yield shard

    def _entries(self) -> Iterator[Path]:
        for shard in self._shards():
            try:
                children = list(shard.iterdir())
            except OSError:
                continue
            for path in children:
                if path.suffix == ".pkl" and not path.name.startswith(".tmp-"):
                    yield path

    @property
    def entry_count(self) -> int:
        return sum(1 for _ in self._entries())

    @property
    def size_bytes(self) -> int:
        total = 0
        for path in self._entries():
            # A concurrent worker may unlink an entry between listing
            # and stat; a vanished file simply no longer contributes.
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def clear(self) -> int:
        """Delete every cached object; returns the number removed.

        Also sweeps ``.tmp-*`` leftovers from interrupted :meth:`put`
        calls, removes emptied ``objects/<xx>/`` shard directories, and
        resets any degraded state (clearing is a fresh start).
        """
        removed = 0
        for shard in list(self._shards()):
            try:
                children = list(shard.iterdir())
            except OSError:
                continue
            for path in children:
                is_entry = (
                    path.suffix == ".pkl" and not path.name.startswith(".tmp-")
                )
                try:
                    path.unlink()
                except OSError:
                    continue
                if is_entry:
                    removed += 1
            try:
                shard.rmdir()
            except OSError:
                pass
        self.degraded = False
        self._io_error_streak = 0
        return removed

    def describe(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "entries": self.entry_count,
            "size_bytes": self.size_bytes,
            "degraded": self.degraded,
            "session": self.stats.as_dict(),
        }

    def __repr__(self) -> str:
        return f"ArtifactCache({str(self.root)!r})"


def resolve_cache(
    cache_dir: Union[None, bool, str, Path, ArtifactCache] = None,
) -> Optional[ArtifactCache]:
    """Resolve the cache to use for a run.

    Priority: ``cache_dir=False`` disables caching outright; an explicit ``cache_dir`` (path or ready
    :class:`ArtifactCache`) wins next; then the ``REPRO_CACHE_DIR``
    environment variable; otherwise caching is off and the pipeline
    computes everything in memory.

    ``False`` exists so an upstream "caching off" decision survives
    re-resolution: flow entry points resolve their ``cache`` argument
    again (workers receive it as a plain value), and ``None`` there
    would fall through to the environment variable.  ``True`` is the
    mirror image — "definitely cache": the environment variable still
    wins, else the default user cache directory.  The long-lived server
    uses it so every request shares one artifact store by default.

    Processes share work by sharing a directory: point every run,
    server and pool worker at the same ``REPRO_CACHE_DIR`` (locally or
    on a shared mount).  Atomic writes and the CRC envelope make
    concurrent readers and writers safe without any coordination.
    """
    if cache_dir is False:
        return None
    if isinstance(cache_dir, ArtifactCache):
        return cache_dir
    if cache_dir is not None and cache_dir is not True:
        return ArtifactCache(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return ArtifactCache(env)
    if cache_dir is True:
        return ArtifactCache(DEFAULT_CACHE_DIR)
    return None
