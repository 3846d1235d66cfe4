"""Service edge cases: coalescing, admission control, timeouts, drain.

All tests use stub runners on the thread executor so behaviour is
deterministic and fast; the real-pipeline path is covered by
``test_service_integration.py``.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.pipeline.pipeline import PipelineCancelled, PipelineReport
from repro.service.server import ServerConfig, CompileServer

from tests.service.conftest import (
    DETECTOR_KISS,
    http_request,
    run_async,
    serving,
)


def _config(**overrides):
    base = dict(port=0, executor="thread", cache=False, jobs=2,
                max_queue=8, timeout_s=30.0)
    base.update(overrides)
    return ServerConfig(**base)


class CountingRunner:
    """Stub runner: counts executions, optionally stalls on a gate."""

    def __init__(self, delay=0.0, gate=None):
        self.calls = 0
        self.delay = delay
        self.gate = gate
        self._lock = threading.Lock()

    def __call__(self, job, cache=None, should_cancel=None):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0)
        if self.delay:
            time.sleep(self.delay)
        return ({"source": job.source, "key": job.key}, [])


class TestRouting:
    def test_healthz(self):
        async def body():
            async with serving(_config()) as server:
                status, reply = await http_request(server.port, "GET", "/healthz")
                assert status == 200
                assert reply["status"] == "ok"
                assert reply["max_queue"] == 8
        run_async(body())

    def test_unknown_route_404(self):
        async def body():
            async with serving(_config()) as server:
                status, reply = await http_request(server.port, "GET", "/nope")
                assert status == 404
                assert reply["error"] == "not_found"
        run_async(body())

    @pytest.mark.parametrize("route", ["map", "eco", "tune", "batch"])
    def test_only_evaluate_job_route_exists(self, route):
        # The service serves one job kind; other job paths are unknown.
        async def body():
            async with serving(_config()) as server:
                status, reply = await http_request(
                    server.port, "POST", f"/v1/{route}",
                    body={"benchmark": "dk14"},
                )
                assert status == 404
                assert reply["error"] == "not_found"
        run_async(body())

    def test_wrong_method_405(self):
        async def body():
            async with serving(_config()) as server:
                status, _ = await http_request(server.port, "POST", "/healthz",
                                               body={})
                assert status == 405
                status, _ = await http_request(server.port, "GET", "/v1/evaluate")
                assert status == 405
        run_async(body())

    def test_metrics_scrape(self):
        async def body():
            async with serving(_config()) as server:
                await http_request(server.port, "GET", "/healthz")
                status, text = await http_request(server.port, "GET", "/metrics")
                assert status == 200
                assert "# TYPE romfsm_requests_total counter" in text
                assert "romfsm_queue_depth 0" in text
                assert "romfsm_request_seconds_count" in text
        run_async(body())


class TestValidation:
    def test_malformed_json_body_400(self):
        async def body():
            async with serving(_config()) as server:
                status, reply = await http_request(
                    server.port, "POST", "/v1/evaluate",
                    raw_body=b"{not json!",
                )
                assert status == 400
                assert reply["error"] == "bad_json"
        run_async(body())

    def test_unknown_benchmark_400(self):
        async def body():
            async with serving(_config()) as server:
                status, reply = await http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "nosuch"},
                )
                assert status == 400
                assert reply["error"] == "unknown_benchmark"
        run_async(body())

    def test_body_kind_must_be_evaluate(self):
        runner = CountingRunner()

        async def body():
            async with serving(_config(), runner=runner) as server:
                status, reply = await http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14", "kind": "map"},
                )
                assert status == 400
                assert reply["error"] == "invalid"
                status, reply = await http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14", "kind": "evaluate"},
                )
                assert status == 200
                assert reply["kind"] == "evaluate"
                assert runner.calls == 1
        run_async(body())

    def test_unparseable_kiss_400(self):
        async def body():
            async with serving(_config()) as server:
                status, reply = await http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"kiss": "not kiss2 at all"},
                )
                assert status == 400
                assert reply["error"] == "bad_kiss"
        run_async(body())

    def test_oversized_payload_413(self):
        async def body():
            async with serving(_config(max_body_bytes=1024)) as server:
                big = {"kiss": "x" * 4096}
                status, reply = await http_request(
                    server.port, "POST", "/v1/evaluate", body=big,
                )
                assert status == 413
                assert reply["error"] == "oversized"
                # And the rejection shows up on /metrics.
                _, text = await http_request(server.port, "GET", "/metrics")
                assert 'romfsm_rejections_total{reason="oversized"} 1' in text
        run_async(body())

    def test_malformed_request_line_400(self):
        async def body():
            async with serving(_config()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"BOGUS\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"400" in raw.split(b"\r\n", 1)[0]
        run_async(body())


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_execution(self):
        gate = threading.Event()
        runner = CountingRunner(gate=gate)

        async def body():
            async with serving(_config(jobs=1), runner=runner) as server:
                request = {"benchmark": "dk14", "num_cycles": 200}
                tasks = [
                    asyncio.ensure_future(http_request(
                        server.port, "POST", "/v1/evaluate", body=request,
                    ))
                    for _ in range(32)
                ]
                # Wait until every request has attached to the single
                # in-flight entry, then release the (gated) execution.
                for _ in range(500):
                    coalesced = server._m_coalesced.total()
                    if coalesced == 31:
                        break
                    await asyncio.sleep(0.01)
                assert server._m_coalesced.total() == 31
                assert len(server._inflight) == 1
                gate.set()
                replies = await asyncio.gather(*tasks)
                assert runner.calls == 1
                statuses = {status for status, _ in replies}
                assert statuses == {200}
                bodies = {
                    json.dumps(reply["result"], sort_keys=True)
                    for _, reply in replies
                }
                assert len(bodies) == 1
                assert sum(
                    1 for _, reply in replies if reply["coalesced"]
                ) == 31
        run_async(body())

    def test_sequential_identical_requests_rerun(self):
        runner = CountingRunner()

        async def body():
            async with serving(_config(), runner=runner) as server:
                request = {"benchmark": "dk14"}
                for _ in range(2):
                    status, _ = await http_request(
                        server.port, "POST", "/v1/evaluate", body=request,
                    )
                    assert status == 200
                assert runner.calls == 2
        run_async(body())

    def test_different_requests_do_not_coalesce(self):
        gate = threading.Event()
        runner = CountingRunner(gate=gate)

        async def body():
            async with serving(_config(jobs=2), runner=runner) as server:
                tasks = [
                    asyncio.ensure_future(http_request(
                        server.port, "POST", "/v1/evaluate",
                        body={"benchmark": "dk14", "seed": seed},
                    ))
                    for seed in (1, 2)
                ]
                await asyncio.sleep(0.1)
                gate.set()
                replies = await asyncio.gather(*tasks)
                assert {s for s, _ in replies} == {200}
                assert runner.calls == 2
        run_async(body())


class TestAdmissionControl:
    def test_overload_rejected_while_accepted_complete(self):
        gate = threading.Event()
        runner = CountingRunner(gate=gate)

        async def body():
            async with serving(
                _config(jobs=1, max_queue=1), runner=runner
            ) as server:
                # Job 1 takes the single worker, job 2 fills the queue.
                t1 = asyncio.ensure_future(http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14", "seed": 1},
                ))
                t2 = asyncio.ensure_future(http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14", "seed": 2},
                ))
                for _ in range(500):
                    if server._m_queue_depth.value() >= 1:
                        break
                    await asyncio.sleep(0.01)
                assert server._m_queue_depth.value() == 1
                # Job 3 must bounce immediately with 429.
                start = time.perf_counter()
                status, reply = await http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14", "seed": 3},
                )
                elapsed = time.perf_counter() - start
                assert status == 429
                assert reply["error"] == "overloaded"
                assert elapsed < 5.0  # immediate, not after the queue drains
                gate.set()
                replies = await asyncio.gather(t1, t2)
                assert {s for s, _ in replies} == {200}
                _, text = await http_request(server.port, "GET", "/metrics")
                assert 'romfsm_rejections_total{reason="overloaded"} 1' in text
                assert 'status="429"' in text
        run_async(body())

    def test_coalesced_requests_bypass_admission(self):
        gate = threading.Event()
        runner = CountingRunner(gate=gate)

        async def body():
            async with serving(
                _config(jobs=1, max_queue=0), runner=runner
            ) as server:
                # max_queue=0 still admits the running job...
                t1 = asyncio.ensure_future(http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14"},
                ))
                for _ in range(500):
                    if server._inflight:
                        break
                    await asyncio.sleep(0.01)
                # ...and identical requests attach without a queue slot.
                t2 = asyncio.ensure_future(http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14"},
                ))
                await asyncio.sleep(0.05)
                gate.set()
                replies = await asyncio.gather(t1, t2)
                assert {s for s, _ in replies} == {200}
                assert runner.calls == 1
        run_async(body())


class SlowCancellableRunner:
    """Simulates a staged run that polls ``should_cancel`` mid-flight."""

    def __init__(self):
        self.cancelled = threading.Event()
        self.finished = threading.Event()

    def __call__(self, job, cache=None, should_cancel=None):
        for _ in range(400):
            if should_cancel is not None and should_cancel():
                self.cancelled.set()
                raise PipelineCancelled("simulate", PipelineReport([]))
            time.sleep(0.01)
        self.finished.set()
        return ({"done": True}, [])


class TestTimeouts:
    def test_timeout_fires_mid_stage_and_cancels_work(self):
        runner = SlowCancellableRunner()

        async def body():
            async with serving(
                _config(jobs=1, timeout_s=0.2), runner=runner
            ) as server:
                start = time.perf_counter()
                status, reply = await http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14"},
                )
                elapsed = time.perf_counter() - start
                assert status == 504
                assert reply["error"] == "timeout"
                assert elapsed < 3.0
                # The abandoned run stops at the next poll instead of
                # burning the worker for the full 4 seconds.
                await asyncio.get_running_loop().run_in_executor(
                    None, runner.cancelled.wait, 5.0
                )
                assert runner.cancelled.is_set()
                assert not runner.finished.is_set()
                _, text = await http_request(server.port, "GET", "/metrics")
                assert 'romfsm_rejections_total{reason="timeout"} 1' in text
                assert "romfsm_pipeline_cancelled_total" in text
        run_async(body())

    def test_queued_job_timeout_drops_it_before_running(self):
        gate = threading.Event()
        runner = CountingRunner(gate=gate)

        async def body():
            async with serving(
                _config(jobs=1, max_queue=4, timeout_s=0.2), runner=runner
            ) as server:
                t1 = asyncio.ensure_future(http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14", "seed": 1},
                ))
                for _ in range(500):
                    if server._inflight:
                        break
                    await asyncio.sleep(0.01)
                # This one waits in the queue past its budget.
                status, reply = await http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14", "seed": 2},
                )
                assert status == 504
                # Its job was cancelled while still queued, so once the
                # worker frees up nothing new starts: only seed=1 ran.
                gate.set()
                status1, _ = await t1  # exceeded its own budget too
                assert status1 == 504
                await asyncio.sleep(0.1)
                assert runner.calls == 1
                assert not server._inflight
        run_async(body())


class TestDrain:
    def test_drain_completes_in_flight_work(self):
        gate = threading.Event()
        runner = CountingRunner(gate=gate)

        async def body():
            config = _config(jobs=1, drain_grace_s=10.0)
            server = CompileServer(config, runner=runner)
            await server.start()
            t1 = asyncio.ensure_future(http_request(
                server.port, "POST", "/v1/evaluate",
                body={"benchmark": "dk14"},
            ))
            for _ in range(500):
                if server._inflight:
                    break
                await asyncio.sleep(0.01)
            drain = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0.05)
            assert server.draining
            assert not drain.done()  # waiting on the in-flight job
            gate.set()
            await drain
            status, reply = await t1
            assert status == 200
            assert reply["result"]["source"] == "dk14"
            # The listener is gone: new connections are refused.
            try:
                await http_request(server.port, "GET", "/healthz")
            except OSError:
                pass
            else:  # pragma: no cover - depends on OS timing
                raise AssertionError("expected connection failure after drain")
        run_async(body())

    def test_new_jobs_rejected_while_draining(self):
        async def body():
            async with serving(_config()) as server:
                server._draining = True
                status, reply = await http_request(
                    server.port, "POST", "/v1/evaluate",
                    body={"benchmark": "dk14"},
                )
                assert status == 503
                assert reply["error"] == "draining"
                assert server.health()["status"] == "draining"
                server._draining = False
        run_async(body())
