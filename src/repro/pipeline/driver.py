"""Process-pool parallel driver and the per-run manifest.

Independent benchmark × frequency × config evaluations share nothing but
the on-disk artifact cache, so they shard trivially across worker
processes.  :func:`run_sharded` maps a top-level function over items
with ``jobs`` workers (inline when ``jobs <= 1`` — no pool overhead, and
the degenerate case the equivalence tests compare against), preserving
input order.

:class:`RunManifest` aggregates the per-stage
:class:`~repro.pipeline.pipeline.StageRecord` streams of every shard
into the observability summary the ROADMAP asks for: stage timings,
cache hit/miss counts, worker count, wall-clock.

Worker death (OOM kill, segfault in a native dependency, or an
injected ``driver.worker`` fault) breaks the whole pool, so the pool
path submits per-item futures and retries the shards a broken pool
took down: up to ``max_retries`` extra rounds with jittered
exponential backoff, then a typed :class:`WorkerCrashError`.  A normal
exception *raised by the task itself* is not retried — evaluations are
deterministic, so it would fail identically again.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro import faults
from repro.logutil import get_logger, kv
from repro.pipeline.pipeline import PipelineReport, StageRecord

__all__ = ["RunManifest", "WorkerCrashError", "run_sharded"]

logger = get_logger("pipeline.driver")

DEFAULT_MAX_RETRIES = 2
# Retry-round backoff: _BACKOFF_S * 2**attempt, jittered by a seeded RNG
# so a rerun sleeps the same way.
_BACKOFF_S = 0.25
_RETRY_SEED = 0


class WorkerCrashError(RuntimeError):
    """Pool workers kept dying after every retry round."""

    def __init__(self, failed: int, attempts: int):
        super().__init__(
            f"{failed} shard(s) lost to worker crashes after "
            f"{attempts} attempt(s)"
        )
        self.failed = failed
        self.attempts = attempts


def _pool_worker_init(plan_spec: Optional[str]) -> None:
    """Install the driver's active fault plan in a fresh pool worker.

    The environment route (``REPRO_FAULTS``) reaches fork and spawn
    children, but a *forkserver* inherits the environment of the moment
    the server process launched — an env var exported afterwards never
    arrives.  Passing the plan through the pool initializer makes fault
    propagation deterministic under every start method.
    """
    if not plan_spec:
        return
    from repro.faults.plan import FaultPlan

    try:
        faults.install(FaultPlan.from_spec(plan_spec))
    except ValueError:  # pragma: no cover - malformed plan, fail open
        pass


def _worker_call(func: Callable[[Any], Any], item: Any, attempt: int) -> Any:
    """Per-shard pool entry; carries the ``driver.worker`` fault point.

    ``attempt`` is in the fault context so a chaos rule can kill every
    first-attempt worker (``match: {"attempt": 0}``) while letting the
    retry round through — the fault counters themselves reset with each
    fresh worker process and cannot make that distinction.
    """
    faults.hit("driver.worker", attempt=attempt)
    return func(item)


def run_sharded(
    func: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int = 1,
    max_retries: int = DEFAULT_MAX_RETRIES,
    mp_context: Optional[str] = None,
) -> List[Any]:
    """Map ``func`` over ``items`` with ``jobs`` worker processes.

    ``func`` must be a module-level callable and every item/result must
    be picklable.  Results come back in input order.  Shards lost to a
    crashed worker are retried (``max_retries`` rounds, jittered
    exponential backoff); when retries run out
    a :class:`WorkerCrashError` is raised.  ``mp_context`` selects the
    multiprocessing start method (e.g. ``"forkserver"``, the service's
    choice — workers never inherit a dirty heap); ``None`` keeps the
    platform default.
    """
    start = time.perf_counter()
    if jobs is None or jobs <= 1 or len(items) <= 1:
        logger.debug(kv("shard_run", mode="inline", items=len(items)))
        results = [func(item) for item in items]
    else:
        results = _run_pool(
            func, items, jobs=jobs, max_retries=max_retries,
            mp_context=mp_context,
        )
    logger.info(kv(
        "shard_done", items=len(items), jobs=max(1, jobs or 1),
        seconds=time.perf_counter() - start,
    ))
    return results


def _run_pool(
    func: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int,
    max_retries: int,
    mp_context: Optional[str] = None,
) -> List[Any]:
    results: List[Any] = [None] * len(items)
    pending = list(range(len(items)))
    rng = random.Random(_RETRY_SEED)
    attempt = 0
    context = multiprocessing.get_context(mp_context) if mp_context else None
    plan = faults.active_plan()
    plan_spec = plan.to_json() if plan is not None else None
    while True:
        workers = min(jobs, len(pending))
        logger.debug(kv(
            "shard_run", mode="pool", items=len(pending), jobs=workers,
            attempt=attempt,
        ))
        crashed: List[int] = []
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_pool_worker_init,
            initargs=(plan_spec,),
        ) as pool:
            futures = {
                index: pool.submit(_worker_call, func, items[index], attempt)
                for index in pending
            }
            for index in pending:
                try:
                    results[index] = futures[index].result()
                except BrokenProcessPool:
                    crashed.append(index)
        if not crashed:
            return results
        if attempt >= max_retries:
            logger.error(kv(
                "shard_crash_exhausted", failed=len(crashed),
                attempts=attempt + 1,
            ))
            raise WorkerCrashError(failed=len(crashed), attempts=attempt + 1)
        delay = _BACKOFF_S * (2 ** attempt) * (0.5 + rng.random())
        logger.warning(kv(
            "shard_retry", crashed=len(crashed), attempt=attempt + 1,
            max_retries=max_retries, delay_s=round(delay, 3),
        ))
        time.sleep(delay)
        pending = crashed
        attempt += 1


@dataclass
class StageTotals:
    """Aggregated timings/counters for one stage across all shards."""

    runs: int = 0
    hits: int = 0
    misses: int = 0
    seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "hits": self.hits,
            "misses": self.misses,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class RunManifest:
    """Observability summary of one sharded pipeline campaign."""

    jobs: int = 1
    items: int = 0
    wall_seconds: float = 0.0
    stages: Dict[str, StageTotals] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The service aggregates into one shared manifest from executor
        # threads and loop callbacks concurrently; plain CLI use pays a
        # few uncontended acquisitions.
        self._lock = threading.Lock()

    def add_report(self, report: PipelineReport) -> None:
        self.add_records(report.records)

    def add_records(self, records: Iterable[StageRecord]) -> None:
        """Fold a stream of stage records in as one more evaluation."""
        with self._lock:
            self.items += 1
            for record in records:
                totals = self.stages.setdefault(record.stage, StageTotals())
                totals.runs += 1
                totals.seconds += record.seconds
                if record.cache_hit:
                    totals.hits += 1
                else:
                    totals.misses += 1

    def merge(self, other: "RunManifest") -> None:
        """Fold another manifest's totals into this one (metrics hook)."""
        with self._lock:
            self.items += other.items
            self.wall_seconds += other.wall_seconds
            for name, theirs in other.stages.items():
                totals = self.stages.setdefault(name, StageTotals())
                totals.runs += theirs.runs
                totals.hits += theirs.hits
                totals.misses += theirs.misses
                totals.seconds += theirs.seconds

    @classmethod
    def from_reports(
        cls,
        reports: Iterable[PipelineReport],
        jobs: int = 1,
        wall_seconds: float = 0.0,
    ) -> "RunManifest":
        manifest = cls(jobs=jobs, wall_seconds=wall_seconds)
        for report in reports:
            manifest.add_report(report)
        return manifest

    # -- derived counters ---------------------------------------------

    @property
    def stage_runs(self) -> int:
        return sum(t.runs for t in self.stages.values())

    @property
    def cache_hits(self) -> int:
        return sum(t.hits for t in self.stages.values())

    @property
    def cache_misses(self) -> int:
        return sum(t.misses for t in self.stages.values())

    @property
    def hit_rate(self) -> float:
        runs = self.stage_runs
        return self.cache_hits / runs if runs else 0.0

    # -- serialization -------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "items": self.items,
            "wall_seconds": round(self.wall_seconds, 6),
            "stage_runs": self.stage_runs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": round(self.hit_rate, 4),
            "stages": {name: t.as_dict() for name, t in sorted(self.stages.items())},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    def summary(self) -> str:
        """One-line human summary for CLI runs."""
        return (
            f"{self.items} evaluation(s), {self.stage_runs} stage runs, "
            f"{self.cache_hits} cache hit(s) / {self.cache_misses} miss(es), "
            f"jobs={self.jobs}, wall {self.wall_seconds:.2f}s"
        )
