"""The async FSM-compilation server.

One asyncio event loop fronts a pool of CPU workers:

- **Validation/fingerprinting** — request bodies become
  :class:`~repro.service.jobs.Job` objects whose ``key`` is the
  canonical content fingerprint of the resolved pipeline config.
- **Coalescing** — while a job with some key is in flight, every new
  request with the same key attaches to the existing execution instead
  of spawning another; all waiters receive the same payload.
- **Admission control** — at most ``max_queue`` unique jobs may wait
  for an executor slot; beyond that the server answers 429
  ``overloaded`` immediately, so latency stays bounded under pressure.
- **Timeouts with cancellation** — each waiter gives up after
  ``timeout_s`` (504).  When the *last* waiter of a job gives up, the
  job is cancelled: a queued job is dropped outright, a running one is
  asked to stop at the next pipeline stage boundary.
- **Drain** — SIGTERM/SIGINT stop the listener, let in-flight work
  finish (bounded by ``drain_grace_s``), then shut the executor down.

CPU-bound pipeline work runs in a ``ProcessPoolExecutor`` by default;
``executor="thread"`` keeps it in-process (used by tests to count
executions, and useful when the artifact cache already serves most
stages).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro import faults
from repro.logutil import configure_logging, get_logger, kv
from repro.pipeline.cache import resolve_cache
from repro.pipeline.driver import RunManifest, WorkerCrashError
from repro.pipeline.pipeline import PipelineCancelled
from repro.service import http
from repro.service.jobs import Job, JobError, parse_job, run_job
from repro.service.metrics import MetricsRegistry, render_labels

__all__ = ["CompileServer", "ServerConfig"]

logger = get_logger("service.server")


@dataclass
class ServerConfig:
    """Tunables for one :class:`CompileServer` instance."""

    host: str = "127.0.0.1"
    port: int = 8000
    jobs: int = 2                      # executor workers
    max_queue: int = 32                # admitted-but-not-running unique jobs
    timeout_s: float = 120.0           # per-request wall-clock budget
    cache: Any = True                  # resolve_cache() spec; True = shared default
    max_body_bytes: int = http.DEFAULT_MAX_BODY_BYTES
    executor: str = "process"          # "process" | "thread"
    drain_grace_s: float = 30.0
    # Process-pool rebuilds tolerated per job before a typed failure
    # (a killed worker breaks the whole pool; see _execute).
    worker_retries: int = 2


class _InFlight:
    """One coalesced execution: the shared future plus waiter accounting."""

    __slots__ = ("key", "future", "task", "waiters", "cancel_event", "started")

    def __init__(self, key: str, future: "asyncio.Future"):
        self.key = key
        self.future = future
        self.task: Optional[asyncio.Task] = None
        self.waiters = 0
        self.cancel_event = threading.Event()
        self.started = False


def _pool_run(
    job: Job,
    cache: Any,
    attempt: int = 0,
    faults_env: Optional[str] = None,
):
    """Module-level executor target (must be picklable for process pools)."""
    # The active fault plan travels as an argument: workers are forked
    # from a forkserver whose environment was captured at its first
    # start, so the submit-time env value is the authoritative one.
    if faults_env:
        os.environ[faults.FAULTS_ENV] = faults_env
    else:
        os.environ.pop(faults.FAULTS_ENV, None)
    # Chaos hook: "kill" here takes the whole pool worker down, which
    # surfaces to the event loop as BrokenProcessPool; _execute rebuilds
    # the pool and retries with the attempt counter advanced.
    faults.hit("service.worker", attempt=attempt)
    return run_job(job, cache=cache)


class CompileServer:
    """Asyncio HTTP frontend over the staged evaluation pipeline."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        runner: Optional[Callable[..., Any]] = None,
    ):
        self.config = config or ServerConfig()
        # runner(job, cache=..., should_cancel=...) -> (payload, records);
        # injectable so tests can count/stall executions.
        self._runner = runner
        self._cache = resolve_cache(self.config.cache)
        self._cache_spec: Any = (
            str(self._cache.root) if self._cache is not None else False
        )
        self._inflight: Dict[str, _InFlight] = {}
        self._slots = asyncio.Semaphore(max(1, self.config.jobs))
        self._executor = None
        self._executor_generation = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._drained = asyncio.Event()
        self._started_at = time.monotonic()
        self.port: Optional[int] = None

        self.manifest = RunManifest(jobs=max(1, self.config.jobs))
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_requests = m.counter(
            "romfsm_requests_total", "HTTP requests by route and status.")
        self._m_rejected = m.counter(
            "romfsm_rejections_total", "Requests rejected, by reason.")
        self._m_queue_depth = m.gauge(
            "romfsm_queue_depth", "Unique jobs admitted and waiting for a worker.")
        self._m_in_flight = m.gauge(
            "romfsm_in_flight", "Unique jobs currently executing.")
        self._m_coalesced = m.counter(
            "romfsm_coalesced_requests_total",
            "Requests served by attaching to an identical in-flight job.")
        self._m_runs = m.counter(
            "romfsm_pipeline_runs_total", "Pipeline executions by job kind.")
        self._m_cancelled = m.counter(
            "romfsm_pipeline_cancelled_total",
            "Executions stopped at a stage boundary after all waiters left.")
        self._m_latency = m.histogram(
            "romfsm_request_seconds", "End-to-end request latency (seconds).")
        self._m_worker_crashes = m.counter(
            "romfsm_worker_crashes_total",
            "Process-pool rebuilds after a crashed worker.")

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "CompileServer":
        cfg = self.config
        if cfg.executor == "process":
            self._executor = self._new_process_pool()
        elif cfg.executor == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=max(1, cfg.jobs), thread_name_prefix="romfsm-job"
            )
        else:
            raise ValueError(f"unknown executor kind {cfg.executor!r}")
        self._server = await asyncio.start_server(
            self._handle_connection, host=cfg.host, port=cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info(kv(
            "serve_start", host=cfg.host, port=self.port, jobs=cfg.jobs,
            max_queue=cfg.max_queue, timeout_s=cfg.timeout_s,
            executor=cfg.executor,
            cache=str(self._cache.root) if self._cache else "off",
        ))
        return self

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda s=sig: asyncio.ensure_future(self.drain(s))
            )

    async def serve_forever(self) -> None:
        """Run until a drain (signal or :meth:`drain`) completes."""
        await self._drained.wait()

    async def drain(self, sig: Optional[int] = None) -> None:
        """Stop accepting work, finish what is in flight, shut down."""
        if self._draining:
            return
        self._draining = True
        logger.info(kv(
            "drain_start", signal=getattr(sig, "name", sig) or "-",
            in_flight=len(self._inflight),
        ))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [
            entry.future for entry in self._inflight.values()
            if not entry.future.done()
        ]
        if pending:
            done, not_done = await asyncio.wait(
                pending, timeout=self.config.drain_grace_s
            )
            if not_done:
                logger.warning(kv("drain_timeout", abandoned=len(not_done)))
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        logger.info(kv("drain_done"))
        self._drained.set()

    async def stop(self) -> None:
        await self.drain()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        start = time.perf_counter()
        route = "-"
        try:
            try:
                request = await http.read_request(
                    reader, max_body_bytes=self.config.max_body_bytes
                )
            except http.HttpError as exc:
                self._m_rejected.inc(reason=exc.reason)
                response = http.error_response(exc.status, exc.message, exc.reason)
            else:
                if request is None:
                    return
                base = http.split_query(request.path)[0]
                if base not in ("/healthz", "/metrics", "/v1/evaluate"):
                    base = "other"  # bound the metrics label cardinality
                route = f"{request.method} {base}"
                response = await self._dispatch(request)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            logger.exception(kv("request_error", route=route, error=type(exc).__name__))
            response = http.error_response(500, str(exc), "internal")
        seconds = time.perf_counter() - start
        self._m_requests.inc(route=route, status=str(response.status))
        self._m_latency.observe(seconds)
        logger.info(kv(
            "request", route=route, status=response.status, ms=seconds * 1e3
        ))
        try:
            encoded = response.encode()
            action = faults.hit("service.connection", route=route)
            if action is not None and action.kind == "reset":
                # Chaos hook: ship half the response, then hard-abort
                # the transport (RST) — the client must see a broken
                # read, never a short body parsed as success.
                writer.write(encoded[: len(encoded) // 2])
                try:
                    await writer.drain()
                finally:
                    writer.transport.abort()
                return
            writer.write(encoded)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _dispatch(self, request: http.Request) -> http.Response:
        path, _query = http.split_query(request.path)
        if path == "/healthz":
            if request.method != "GET":
                return http.error_response(405, "use GET", "bad_method")
            return http.json_response(self.health())
        if path == "/metrics":
            if request.method != "GET":
                return http.error_response(405, "use GET", "bad_method")
            return http.Response(
                status=200,
                body=self.render_metrics().encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        if path == "/v1/evaluate":
            if request.method != "POST":
                return http.error_response(405, "use POST", "bad_method")
            return await self._handle_job(request)
        return http.error_response(404, f"no route {path!r}", "not_found")

    # -- job orchestration ---------------------------------------------

    async def _handle_job(self, request: http.Request) -> http.Response:
        if self._draining:
            self._m_rejected.inc(reason="draining")
            return http.error_response(
                503, "server is draining; retry elsewhere", "draining"
            )
        try:
            job = parse_job(request.json())
        except http.HttpError as exc:
            self._m_rejected.inc(reason=exc.reason)
            return http.error_response(exc.status, exc.message, exc.reason)
        except JobError as exc:
            self._m_rejected.inc(reason=exc.reason)
            return http.error_response(400, str(exc), exc.reason)

        entry, coalesced = self._admit(job)
        if entry is None:
            return http.error_response(
                429,
                f"overloaded: {int(self._m_in_flight.value())} running and "
                f"{int(self._m_queue_depth.value())} queued jobs "
                f"(max queue {self.config.max_queue})",
                "overloaded",
            )

        timeout_s = self.config.timeout_s
        entry.waiters += 1
        try:
            payload, records = await asyncio.wait_for(
                asyncio.shield(entry.future), timeout=timeout_s
            )
        except asyncio.TimeoutError:
            self._m_rejected.inc(reason="timeout")
            logger.warning(kv(
                "request_timeout", key=job.key[:12],
                timeout_s=timeout_s, waiters=entry.waiters - 1,
            ))
            return http.error_response(
                504,
                f"job {job.label} exceeded the {timeout_s:g}s budget",
                "timeout",
            )
        except (PipelineCancelled, asyncio.CancelledError):
            # Should only reach waiters in a drain-abandon corner; report
            # it as the timeout it effectively is.
            self._m_rejected.inc(reason="timeout")
            return http.error_response(
                504, f"job {job.label} was cancelled", "timeout"
            )
        except JobError as exc:
            self._m_rejected.inc(reason=exc.reason)
            return http.error_response(400, str(exc), exc.reason)
        except Exception as exc:  # noqa: BLE001 - runner bug → 500
            return http.error_response(
                500, f"{type(exc).__name__}: {exc}", "internal"
            )
        finally:
            entry.waiters -= 1
            if entry.waiters == 0 and not entry.future.done():
                # Last interested party left: stop the work.  A queued
                # job dies immediately; a running one stops at the next
                # stage boundary via the cancel event.
                entry.cancel_event.set()
                if not entry.started and entry.task is not None:
                    entry.task.cancel()

        hits = sum(1 for r in records if r.cache_hit)
        return http.json_response({
            "ok": True,
            "kind": "evaluate",
            "key": job.key,
            "coalesced": coalesced,
            "result": payload,
            "pipeline": {
                "stage_runs": len(records),
                "cache_hits": hits,
                "cache_misses": len(records) - hits,
            },
        })

    def _admit(self, job: Job) -> Tuple[Optional[_InFlight], bool]:
        """Attach to an identical in-flight job, or spawn the execution.

        Returns ``(entry, coalesced)``; ``(None, False)`` means the
        admission queue rejected the job.
        """
        entry = self._inflight.get(job.key)
        if entry is not None:
            self._m_coalesced.inc()
            return entry, True
        queued = int(self._m_queue_depth.value())
        running = int(self._m_in_flight.value())
        if queued >= self.config.max_queue and running >= self.config.jobs:
            self._m_rejected.inc(reason="overloaded")
            logger.warning(kv(
                "reject_overloaded", key=job.key[:12], queued=queued,
                running=running, max_queue=self.config.max_queue,
            ))
            return None, False
        entry = _InFlight(job.key, asyncio.get_running_loop().create_future())
        self._inflight[job.key] = entry
        entry.task = asyncio.ensure_future(self._execute(entry, job))
        return entry, False

    async def _execute(self, entry: _InFlight, job: Job) -> None:
        """Run one unique job through the executor; settle the future."""
        queued = True
        self._m_queue_depth.inc()
        try:
            async with self._slots:
                self._m_queue_depth.dec()
                queued = False
                entry.started = True
                if entry.cancel_event.is_set():
                    raise asyncio.CancelledError
                self._m_in_flight.inc()
                started = time.perf_counter()
                try:
                    payload, records = await self._run_in_executor(entry, job)
                finally:
                    self._m_in_flight.dec()
                self._m_runs.inc(kind="evaluate")
                self.manifest.add_records(records)
                logger.info(kv(
                    "job_done", source=job.source,
                    key=job.key[:12], seconds=time.perf_counter() - started,
                    stage_runs=len(records),
                    cache_hits=sum(1 for r in records if r.cache_hit),
                ))
                if not entry.future.done():
                    entry.future.set_result((payload, records))
        except PipelineCancelled as exc:
            self._m_cancelled.inc(kind="evaluate")
            self.manifest.add_records(exc.report.records)
            logger.info(kv(
                "job_cancelled", key=job.key[:12],
                before_stage=exc.stage,
            ))
            if not entry.future.done():
                entry.future.set_exception(exc)
        except asyncio.CancelledError:
            if queued:
                self._m_queue_depth.dec()
            self._m_cancelled.inc(kind="evaluate")
            if not entry.future.done():
                entry.future.cancel()
        except Exception as exc:  # noqa: BLE001 - runner bug
            logger.exception(kv(
                "job_error", key=job.key[:12],
                error=type(exc).__name__,
            ))
            if not entry.future.done():
                entry.future.set_exception(exc)
        finally:
            self._inflight.pop(job.key, None)
            # Futures nobody awaits anymore must not warn on teardown.
            if entry.future.done() and entry.future.cancelled() is False:
                exc = entry.future.exception()
                del exc

    async def _run_in_executor(self, entry: _InFlight, job: Job):
        """Dispatch one job to the executor, surviving crashed workers.

        A worker that dies mid-job (OOM kill, chaos ``os._exit``) breaks
        the *whole* ``ProcessPoolExecutor`` — every queued future fails
        with :class:`BrokenProcessPool`.  The first job to observe the
        break swaps in a fresh pool (generation-guarded so concurrent
        observers rebuild once) and each affected job retries with its
        attempt counter advanced, up to ``worker_retries`` rebuilds.
        """
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            generation = self._executor_generation
            if self.config.executor == "process":
                # The cancel event cannot cross the process boundary;
                # an abandoned job runs to completion there and at
                # least warms the artifact cache.
                if self._runner is not None:
                    call = partial(self._runner, job, self._cache_spec)
                else:
                    call = partial(
                        _pool_run, job, self._cache_spec, attempt,
                        os.environ.get(faults.FAULTS_ENV),
                    )
            else:
                runner = self._runner or run_job
                # Thread workers share the server's cache instance, so
                # degradation state and stats are process-wide truths
                # (and /metrics can report them); process workers get
                # the path spec.
                call = partial(
                    runner, job,
                    cache=(
                        self._cache if self._cache is not None
                        else self._cache_spec
                    ),
                    should_cancel=entry.cancel_event.is_set,
                )
            try:
                return await loop.run_in_executor(self._executor, call)
            except BrokenProcessPool:
                attempt += 1
                self._m_worker_crashes.inc()
                if (
                    self._draining
                    or self.config.executor != "process"
                    or attempt > self.config.worker_retries
                ):
                    raise WorkerCrashError(1, attempt)
                logger.warning(kv(
                    "worker_retry", key=job.key[:12],
                    attempt=attempt,
                ))
                self._rebuild_executor(generation)

    def _new_process_pool(self) -> ProcessPoolExecutor:
        """A worker pool whose processes never inherit connection fds.

        Plain ``fork`` taken mid-request would duplicate every open
        client socket into the long-lived workers; a client that reads
        its reply until EOF then blocks, because a worker still holds
        the fd after the server closes its copy.  Forking from a forkserver (itself spawned
        fd-clean via exec) breaks that inheritance for the initial pool
        and for every crash rebuild.
        """
        return ProcessPoolExecutor(
            max_workers=max(1, self.config.jobs),
            mp_context=multiprocessing.get_context("forkserver"),
        )

    def _rebuild_executor(self, generation: int) -> None:
        """Replace a broken process pool (once per break, not per job)."""
        if generation != self._executor_generation:
            return  # another job already rebuilt past this generation
        self._executor_generation += 1
        broken = self._executor
        self._executor = self._new_process_pool()
        if broken is not None:
            broken.shutdown(wait=False)

    # -- introspection --------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "in_flight": int(self._m_in_flight.value()),
            "queue_depth": int(self._m_queue_depth.value()),
            "max_queue": self.config.max_queue,
            "jobs": self.config.jobs,
            "executor": self.config.executor,
            "cache": str(self._cache.root) if self._cache is not None else None,
            "cache_degraded": (
                self._cache.degraded if self._cache is not None else None
            ),
        }

    def render_metrics(self) -> str:
        """The /metrics page: registry metrics + per-stage manifest lines."""
        lines = []
        stages = dict(self.manifest.stages)  # snapshot
        if stages:
            lines.append(
                "# HELP romfsm_stage_runs_total Pipeline stage executions "
                "(cache hits included).")
            lines.append("# TYPE romfsm_stage_runs_total counter")
            for name, totals in sorted(stages.items()):
                labels = render_labels({"stage": name})
                lines.append(f"romfsm_stage_runs_total{labels} {totals.runs}")
            lines.append(
                "# HELP romfsm_stage_cache_hits_total Stage runs served "
                "from the artifact cache.")
            lines.append("# TYPE romfsm_stage_cache_hits_total counter")
            for name, totals in sorted(stages.items()):
                labels = render_labels({"stage": name})
                lines.append(f"romfsm_stage_cache_hits_total{labels} {totals.hits}")
            lines.append(
                "# HELP romfsm_stage_seconds_total Wall-clock seconds spent "
                "per stage.")
            lines.append("# TYPE romfsm_stage_seconds_total counter")
            for name, totals in sorted(stages.items()):
                labels = render_labels({"stage": name})
                lines.append(
                    f"romfsm_stage_seconds_total{labels} {totals.seconds:.6f}"
                )
        if self._cache is not None:
            # In-process cache health (authoritative for the thread
            # executor; process-pool workers hold their own instances).
            lines.append(
                "# HELP romfsm_cache_degraded Whether the artifact cache "
                "stopped using the disk after repeated I/O errors.")
            lines.append("# TYPE romfsm_cache_degraded gauge")
            lines.append(f"romfsm_cache_degraded {int(self._cache.degraded)}")
            lines.append(
                "# HELP romfsm_cache_io_errors_total I/O errors absorbed "
                "by the artifact cache.")
            lines.append("# TYPE romfsm_cache_io_errors_total counter")
            lines.append(
                f"romfsm_cache_io_errors_total {self._cache.stats.io_errors}"
            )
        return self.metrics.render(extra_lines=lines)


async def run_server(config: ServerConfig) -> None:
    """CLI entry: start, install signal handlers, serve until drained."""
    configure_logging()
    server = CompileServer(config)
    await server.start()
    server.install_signal_handlers()
    await server.serve_forever()
