"""End-to-end service tests against the real pipeline.

These are the acceptance-criteria tests: coalescing over a cold cache
provably runs the pipeline once, and the service's results are
byte-identical to the direct ``evaluate_benchmark`` path.
"""

import asyncio
import json
import threading

from repro.flows.flow import evaluate_benchmark
from repro.service.client import ServiceClient
from repro.service.jobs import evaluate_payload, run_job
from repro.service.server import ServerConfig

from tests.service.conftest import (
    DETECTOR_KISS,
    http_request,
    run_async,
    serving,
)

REQUEST = {
    "benchmark": "dk14",
    "num_cycles": 150,
    "frequencies_mhz": [100.0],
    "seed": 11,
}


def _config(tmp_path, **overrides):
    base = dict(
        port=0, executor="thread", cache=str(tmp_path / "cache"),
        jobs=2, max_queue=64, timeout_s=120.0,
    )
    base.update(overrides)
    return ServerConfig(**base)


class GatedRunJob:
    """The real ``run_job``, gated so requests can pile up first."""

    def __init__(self):
        self.calls = 0
        self.gate = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, job, cache=None, should_cancel=None):
        with self._lock:
            self.calls += 1
        assert self.gate.wait(timeout=60.0)
        return run_job(job, cache=cache, should_cancel=should_cancel)


class TestColdCacheCoalescing:
    def test_32_identical_requests_run_the_pipeline_once(self, tmp_path):
        runner = GatedRunJob()

        async def body():
            async with serving(
                _config(tmp_path, jobs=1), runner=runner
            ) as server:
                tasks = [
                    asyncio.ensure_future(http_request(
                        server.port, "POST", "/v1/evaluate", body=REQUEST,
                    ))
                    for _ in range(32)
                ]
                for _ in range(1000):
                    if server._m_coalesced.total() == 31:
                        break
                    await asyncio.sleep(0.01)
                assert server._m_coalesced.total() == 31
                runner.gate.set()
                replies = await asyncio.gather(*tasks)
                return replies, server.manifest

        replies, manifest = run_async(body(), timeout=120.0)

        assert runner.calls == 1
        assert {status for status, _ in replies} == {200}
        # Exactly one pipeline execution: one manifest item, each of the
        # 8 stages ran once, every run a cold-cache miss.
        assert manifest.items == 1
        assert manifest.stage_runs == 8
        assert manifest.cache_hits == 0
        assert manifest.cache_misses == 8
        # All 32 responses carry byte-identical results...
        payloads = {
            json.dumps(reply["result"], sort_keys=True)
            for _, reply in replies
        }
        assert len(payloads) == 1
        # ...equal to the direct evaluate_benchmark path.
        direct = evaluate_benchmark(
            "dk14", frequencies_mhz=(100.0,), num_cycles=150, seed=11,
            cache=False,
        )
        assert payloads.pop() == json.dumps(
            evaluate_payload(direct), sort_keys=True
        )

    def test_second_round_is_served_from_the_shared_cache(self, tmp_path):
        async def body():
            async with serving(_config(tmp_path, jobs=1)) as server:
                first = await http_request(
                    server.port, "POST", "/v1/evaluate", body=REQUEST,
                )
                second = await http_request(
                    server.port, "POST", "/v1/evaluate", body=REQUEST,
                )
                return first, second, server.manifest

        (s1, r1), (s2, r2), manifest = run_async(body(), timeout=120.0)
        assert s1 == 200 and s2 == 200
        assert r1["pipeline"]["cache_misses"] == 8
        assert r2["pipeline"]["cache_hits"] == 8
        assert manifest.items == 2
        assert json.dumps(r1["result"], sort_keys=True) == \
            json.dumps(r2["result"], sort_keys=True)


class TestClientRoundTrip:
    def test_sync_client_evaluate(self, tmp_path):
        async def body():
            async with serving(_config(tmp_path)) as server:
                loop = asyncio.get_running_loop()
                client = ServiceClient(port=server.port, timeout_s=60.0)

                health = await loop.run_in_executor(None, client.healthz)
                assert health["status"] == "ok"

                reply = await loop.run_in_executor(
                    None,
                    lambda: client.evaluate(
                        kiss=DETECTOR_KISS, name="det",
                        frequencies_mhz=[100.0], num_cycles=120,
                    ),
                )
                assert reply["ok"] is True
                assert reply["result"]["name"] == "det"
                assert "100" in reply["result"]["power_mw"]

                metrics = await loop.run_in_executor(
                    None, client.metrics_text
                )
                assert 'romfsm_pipeline_runs_total{kind="evaluate"} 1' in metrics
                assert 'romfsm_stage_runs_total{stage="parse"} 1' in metrics
        run_async(body(), timeout=120.0)

    def test_client_surfaces_server_errors(self, tmp_path):
        from repro.service.client import ServiceError

        async def body():
            async with serving(_config(tmp_path)) as server:
                loop = asyncio.get_running_loop()
                client = ServiceClient(port=server.port, timeout_s=30.0)
                try:
                    await loop.run_in_executor(
                        None, lambda: client.evaluate(benchmark="nosuch"),
                    )
                except ServiceError as exc:
                    assert exc.status == 400
                    assert exc.reason == "unknown_benchmark"
                else:
                    raise AssertionError("expected ServiceError")
        run_async(body())

    def test_backend_field_is_typed_400(self, tmp_path):
        from repro.service.client import ServiceError

        async def body():
            async with serving(_config(tmp_path)) as server:
                loop = asyncio.get_running_loop()
                client = ServiceClient(port=server.port, timeout_s=60.0)

                reply = await loop.run_in_executor(
                    None,
                    lambda: client.evaluate(
                        benchmark="dk14", frequencies_mhz=[100.0],
                        num_cycles=120,
                    ),
                )
                assert reply["ok"] is True
                assert reply["result"]["rom"]["bram_config"] == "512x36"

                try:
                    await loop.run_in_executor(
                        None,
                        lambda: client.evaluate(
                            benchmark="dk14", backend="virtex2-bram"),
                    )
                except ServiceError as exc:
                    assert exc.status == 400
                    assert exc.reason == "invalid"
                    assert "backend" in exc.message
                else:
                    raise AssertionError("expected ServiceError")
        run_async(body(), timeout=120.0)
