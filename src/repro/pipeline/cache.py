"""Content-addressed on-disk artifact cache.

Layout::

    <root>/objects/<key[:2]>/<key>.pkl

where ``key`` is the stage cache key (see :meth:`Stage.cache_key`) and
each object file holds a pickled ``(fingerprint, value)`` pair.  Writes
are atomic (temp file + ``os.replace``) so concurrent workers sharing a
cache directory can only ever observe complete entries; since keys are
content-addressed, two workers racing on the same key write identical
bytes and either winner is correct.

Crash-safety contract: the cache is an accelerator, never a
correctness dependency.  Every entry is wrapped in a checksummed
envelope (magic + CRC32 of the pickle payload) so silent corruption —
a torn write, a flipped bit — is detected on read instead of being
deserialized into a plausible-but-wrong value.  Corrupt or unreadable
entries are treated as misses (and removed only when the on-disk file
is provably the one that failed to decode — see the inode guard in
:meth:`get`), I/O
errors on reads and writes are absorbed and counted, and after
``degrade_threshold`` consecutive I/O errors the cache *degrades* to a
process-local in-memory store so a sick disk cannot take the pipeline
down with it.  Degradation is logged, visible in :meth:`describe`
(``romfsm cache stats``) and in the service's ``/metrics``.

Both I/O paths carry :mod:`repro.faults` failure points (``cache.get``,
``cache.put``) so the chaos suite can prove all of the above.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro import faults
from repro.logutil import get_logger, kv

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "DEGRADE_THRESHOLD",
    "MEMORY_MAX_BYTES",
    "MEMORY_MAX_ENTRIES",
    "ArtifactCache",
    "CacheStats",
    "resolve_cache",
]

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "romfsm"

# Consecutive I/O errors before the cache falls back to memory.
DEGRADE_THRESHOLD = 3

# Budgets for the degraded-mode in-memory store.  A long-running service
# on a sick disk must not grow without bound: the fallback is an LRU
# with both an entry and a byte ceiling.
MEMORY_MAX_ENTRIES = 1024
MEMORY_MAX_BYTES = 64 * 1024 * 1024

_PICKLE_PROTOCOL = 4

# Validated-probe memo budget: __contains__ remembers the stat identity
# of entries whose envelope it has already checksummed, so hot
# coalescing paths pay one stat per probe instead of re-reading
# multi-MiB entries.
_PROBE_MEMO_MAX = 4096
# Racily-valid guard (same idea as git's racily-clean index check): a
# file rewritten in place within the same coarse-clock tick as the
# validated write keeps its (inode, mtime_ns, size) identity, so only
# entries whose mtime is safely in the past are memoized at all.
_PROBE_MEMO_MIN_AGE_NS = 2_000_000_000

# Entry envelope: magic + 4-byte big-endian CRC32, then the pickle.
_ENTRY_MAGIC = b"RFC1"
_HEADER_LEN = len(_ENTRY_MAGIC) + 4

logger = get_logger("pipeline.cache")


@dataclass
class CacheStats:
    """Hit/miss/store/error counters for one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0        # corrupt entries dropped
    io_errors: int = 0     # OSError on a read or write
    probes: int = 0        # __contains__ lookups
    evictions: int = 0     # degraded-mode LRU entries dropped over budget

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
            "probes": self.probes,
            "evictions": self.evictions,
        }


class ArtifactCache:
    """Content-addressed pickle store for pipeline stage artifacts."""

    def __init__(
        self,
        root: Union[str, Path],
        degrade_threshold: int = DEGRADE_THRESHOLD,
        memory_max_entries: int = MEMORY_MAX_ENTRIES,
        memory_max_bytes: int = MEMORY_MAX_BYTES,
    ):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.stats = CacheStats()
        self.degraded = False
        self._degrade_threshold = max(1, degrade_threshold)
        self._io_error_streak = 0
        # Degraded-mode LRU: key -> (fingerprint, value, approx bytes),
        # most-recently-used last.  Bounded by both budgets below.
        self._memory: "OrderedDict[str, Tuple[str, Any, int]]" = OrderedDict()
        self._memory_bytes = 0
        self._memory_max_entries = max(1, memory_max_entries)
        self._memory_max_bytes = max(1, memory_max_bytes)
        # key -> (st_ino, st_dev, st_mtime_ns, st_size) of the entry
        # file whose envelope last verified; see __contains__.
        self._validated: "OrderedDict[str, Tuple[int, int, int, int]]" = \
            OrderedDict()

    def _path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.pkl"

    # -- validated-probe memo -------------------------------------------

    def _note_valid(self, key: str, st) -> None:
        if st is None:
            return
        if time.time_ns() - st.st_mtime_ns < _PROBE_MEMO_MIN_AGE_NS:
            return  # too fresh to trust stat identity; revalidate later
        self._validated[key] = (
            st.st_ino, st.st_dev, st.st_mtime_ns, st.st_size
        )
        self._validated.move_to_end(key)
        while len(self._validated) > _PROBE_MEMO_MAX:
            self._validated.popitem(last=False)

    def _forget_valid(self, key: str) -> None:
        self._validated.pop(key, None)

    # -- degraded-mode memory store -------------------------------------

    @property
    def memory_entries(self) -> int:
        """Entries currently held by the degraded-mode memory store."""
        return len(self._memory)

    @property
    def memory_bytes(self) -> int:
        """Approximate bytes held by the degraded-mode memory store."""
        return self._memory_bytes

    def _memory_get(self, key: str) -> Optional[Tuple[str, Any]]:
        entry = self._memory.get(key)
        if entry is None:
            return None
        self._memory.move_to_end(key)
        return entry[0], entry[1]

    def _memory_put(self, key: str, fingerprint: str, value: Any) -> None:
        """LRU-insert under the entry/byte budgets; evictions counted.

        Sizing uses the pickled payload length — the same bytes a disk
        entry would cost — so the byte ceiling means what it says even
        for values holding large simulation words.
        """
        try:
            size = len(pickle.dumps((fingerprint, value),
                                    protocol=_PICKLE_PROTOCOL))
        except Exception:
            size = 1024  # unpicklable values still occupy a slot
        old = self._memory.pop(key, None)
        if old is not None:
            self._memory_bytes -= old[2]
        self._memory[key] = (fingerprint, value, size)
        self._memory_bytes += size
        while self._memory and (
            len(self._memory) > self._memory_max_entries
            or self._memory_bytes > self._memory_max_bytes
        ):
            if len(self._memory) == 1 and size > self._memory_max_bytes:
                # A single over-budget entry is still worth keeping:
                # evicting it would make the store useless for exactly
                # the value that was just requested.
                break
            _evicted_key, (_fp, _value, evicted_size) = \
                self._memory.popitem(last=False)
            self._memory_bytes -= evicted_size
            self.stats.evictions += 1

    def _memory_clear(self) -> int:
        count = len(self._memory)
        self._memory.clear()
        self._memory_bytes = 0
        return count

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
        payload = pickle.dumps((fingerprint, value), protocol=_PICKLE_PROTOCOL)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        return _ENTRY_MAGIC + crc.to_bytes(4, "big") + payload

    @staticmethod
    def _decode(data: bytes) -> Tuple[str, Any]:
        """Checksum-verified deserialization (a seam for race tests).

        Raises on a missing/garbled envelope or a CRC mismatch so any
        corruption — including a single flipped bit that pickle would
        cheerfully decode into a wrong value — lands in the
        corrupt-entry path, never in a hit.
        """
        if len(data) < _HEADER_LEN or data[:len(_ENTRY_MAGIC)] != _ENTRY_MAGIC:
            raise ValueError("missing cache-entry envelope")
        expected = int.from_bytes(data[len(_ENTRY_MAGIC):_HEADER_LEN], "big")
        payload = data[_HEADER_LEN:]
        if zlib.crc32(payload) & 0xFFFFFFFF != expected:
            raise ValueError("cache-entry checksum mismatch")
        return pickle.loads(payload)

    @staticmethod
    def verify_envelope(data: bytes) -> bool:
        """Envelope integrity (magic + CRC32) without deserializing.

        This is how ``__contains__`` validates entries it does not need
        to unpickle.
        """
        if len(data) < _HEADER_LEN or data[:len(_ENTRY_MAGIC)] != _ENTRY_MAGIC:
            return False
        expected = int.from_bytes(data[len(_ENTRY_MAGIC):_HEADER_LEN], "big")
        return zlib.crc32(data[_HEADER_LEN:]) & 0xFFFFFFFF == expected

    def _drop_corrupt(self, path: Path, read_stat) -> None:
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
                path.unlink()
        except OSError:
            pass

    # -- lookups --------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[str, Any]]:
        """Return ``(fingerprint, value)`` for ``key``, or ``None``."""
        if self.degraded:
            entry = self._memory_get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return entry
        path = self._path(key)
        read_stat = None
        try:
            action = faults.hit("cache.get", key=key)
            with path.open("rb") as fh:
                read_stat = os.fstat(fh.fileno())
                data = fh.read()
            if action is not None:
                data = faults.corrupt_bytes(action, data)
            fingerprint, value = self._decode(data)
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
            self._forget_valid(key)
            self._drop_corrupt(path, read_stat)
            return None
        self.stats.hits += 1
        self._io_success()
        self._note_valid(key, read_stat)
        return fingerprint, value

    def put(self, key: str, fingerprint: str, value: Any) -> None:
        """Store an entry.  Storage failure degrades; it never raises."""
        if self.degraded:
            self._memory_put(key, fingerprint, value)
            self.stats.stores += 1
            return
        payload = self._encode(fingerprint, value)
        path = self._path(key)
        tmp_name = None
        try:
            faults.hit("cache.put", key=key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".pkl"
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
            if self.degraded:
                self._memory_put(key, fingerprint, value)
                self.stats.stores += 1
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

    def __contains__(self, key: str) -> bool:
        """Whether a *valid* entry exists for ``key``.

        A bare ``.exists()`` would report a key present even when the
        entry envelope is corrupt and the subsequent :meth:`get` will
        miss — a phantom hit that anything coalescing on presence would
        then trust.  The probe therefore validates the envelope checksum
        (without deserializing); a corrupt entry counts as an error, is
        dropped under the same inode guard :meth:`get` uses, and the
        probe answers ``False``.

        Re-reading a multi-MiB entry on *every* probe would tax hot
        coalescing paths, so entries that already verified — here or in
        a successful :meth:`get` — are remembered by stat identity
        (inode, device, mtime_ns, size): while the identity is
        unchanged the probe costs one ``stat``.  Every real writer goes
        through atomic rename and changes that identity; an in-place
        rewrite bumps mtime_ns, and the one blind spot — a same-tick
        same-size in-place rewrite — is closed by the racily-valid age
        guard in :meth:`_note_valid`.
        """
        self.stats.probes += 1
        if self.degraded:
            return key in self._memory
        path = self._path(key)
        memo = self._validated.get(key)
        if memo is not None:
            try:
                st = os.stat(path)
            except OSError:
                self._forget_valid(key)
                return False
            if (st.st_ino, st.st_dev, st.st_mtime_ns, st.st_size) == memo:
                self._validated.move_to_end(key)
                return True
        read_stat = None
        try:
            with path.open("rb") as fh:
                read_stat = os.fstat(fh.fileno())
                data = fh.read()
        except OSError:
            self._forget_valid(key)
            return False
        if self.verify_envelope(data):
            self._note_valid(key, read_stat)
            return True
        self.stats.errors += 1
        self._forget_valid(key)
        self._drop_corrupt(path, read_stat)
        return False

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
        count = sum(1 for _ in self._entries())
        if self.degraded:
            count += len(self._memory)
        return count

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
        removed += self._memory_clear()
        self._validated.clear()
        self.degraded = False
        self._io_error_streak = 0
        return removed

    def describe(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "entries": self.entry_count,
            "size_bytes": self.size_bytes,
            "degraded": self.degraded,
            "memory_entries": self.memory_entries,
            "memory_bytes": self.memory_bytes,
            "session": self.stats.as_dict(),
        }

    def __repr__(self) -> str:
        return f"ArtifactCache({str(self.root)!r})"


def resolve_cache(
    cache_dir: Union[None, bool, str, Path, ArtifactCache] = None,
    no_cache: bool = False,
) -> Optional[ArtifactCache]:
    """Resolve the cache to use for a run.

    Priority: ``no_cache`` (or ``cache_dir=False``) disables caching
    outright; an explicit ``cache_dir`` (path or ready
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
    if no_cache or cache_dir is False:
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
