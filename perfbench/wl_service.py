"""Workload ``service``: open-loop evaluate traffic against a live server.

An in-process :class:`~repro.service.server.CompileServer` in its
default configuration (process pool of 2 forkserver workers, local
cache) is driven open-loop: requests are due on a fixed schedule of 5
requests/s whatever the server does, sent over at most 2 connections,
and each is timed from when it was due.

80% of the requests draw from a hot set of 18 bodies (9 paper
benchmarks x {50, 100} MHz); the rest are fresh random FSMs sent as
inline KISS2.  A request is ``cold`` on the first occurrence of its
body and ``warm`` (a repeat) after that: repeats exercise only the
service layers and cache reads, cold requests the whole pipeline in a
worker.  Each hot body is sent once before the clock starts, and then
repeated ``WARMUP_ROUNDS`` times, so the measured schedule is a server
in steady state: every hot request is a repeat and every fresh one is
cold.  (Measured from a cold hot set, the first sand or ex1 request
holds a connection for seconds, and where it lands in the schedule,
not the code, set the repeat tail.)

Each second of the schedule starts with one cold request and spaces
four repeats after it (``SLOTS``), so a repeat meets a running cold
request only when that one is slow.  With the two kinds placed at
random, the share of repeats that shared the two cores with a cold
pipeline changed from run to run and moved the repeat median by 25%.
Between the two (``PAUSE_AT``) the benchmark process collects garbage
and times the speed reference, so neither lands inside a repeat.

The repeats go through the hot set in rounds, each round every hot
body once in a seeded order, and a schedule holds whole rounds.  The
hot bodies' repeat latencies differ by 2x (dk14 about 7 ms, planet
about 14 ms); drawn at random, the mix and with it the repeat median
changed with the seed.

The schedule and every body are generated before the clock starts.
The speed reference is timed in this process and, for the repeats,
behind an HTTP round trip to an echo process (``speed.EchoReference``).
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import math
import random
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Tuple

from outcome import PAPER_SEED, Context, Outcome
from speed import EchoReference, calibrate
from quantiles import min_samples

# Offsets (s) within each second: a cold request, then four repeats.
SLOTS = (0.0, 0.6, 0.7, 0.8, 0.9)
# Offset of the garbage collection and speed sample in each second.
PAUSE_AT = 0.45
HOT_FREQUENCIES_MHZ = (50.0, 100.0)
# The nine paper benchmarks at each hot frequency.
HOT_BODIES = 9 * len(HOT_FREQUENCIES_MHZ)
NUM_CYCLES = 1000
# Rounds of repeats of the hot set sent before the clock starts.
WARMUP_ROUNDS = 3
CONNECTIONS = 2
# Seconds that hold whole rounds of the hot set.
ROUND_SECONDS = HOT_BODIES // math.gcd(HOT_BODIES, len(SLOTS) - 1)
# Enough whole rounds that the repeats support a p90 with 10 samples beyond.
MIN_SECONDS = ROUND_SECONDS * math.ceil(
    min_samples(90) / (len(SLOTS) - 1) / ROUND_SECONDS
)
# A schedule whose lateness grows by more than this from its first to
# its last quarter has fallen behind; its latencies are not open-loop.
BEHIND_MARGIN_S = 0.25
REQUEST_TIMEOUT_S = 60.0
# Generator seed of the first fresh machine (k-th: FRESH_SEED + k).
FRESH_SEED = 7000


@dataclass(frozen=True)
class Request:
    offset: float   # seconds after the schedule starts
    body: bytes
    label: str


def _spread(k: int, step: float, lo: int, hi: int) -> int:
    """The k-th point of a low-discrepancy walk over ``lo..hi``."""
    return lo + int(((k + 1) * step) % 1.0 * (hi - lo + 1))


def fresh_spec(k: int, name: str):
    """The k-th fresh FSM: 4-24 states, 2-7 inputs, 2-8 outputs.

    The shapes walk the ranges evenly and, like the transition structure,
    do not depend on the workload seed: every run sends the same corpus
    of random machines (in its own order, with its own stimulus seed), so
    the cold-request median does not move with the draw of machines.
    """
    from repro.bench.generator import GeneratorSpec

    inputs = _spread(k, 0.4142135, 2, 7)
    lo = min(2, inputs)
    return GeneratorSpec(
        name=name,
        num_states=_spread(k, 0.6180339, 4, 24),
        num_inputs=inputs,
        num_outputs=_spread(k, 0.7320508, 2, 8),
        care_inputs=(lo, _spread(k, 0.2360679, lo, min(inputs, 5))),
        successors=(2, 3),
        moore=k % 4 == 3,
        column_locality=0.5 * (k % 2),
        seed=FRESH_SEED + k,
    )


def encode(body: Dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def fresh_body(spec, program_seed: int) -> bytes:
    from repro.bench.generator import generate_fsm
    from repro.fsm.kiss import format_kiss

    return encode({
        "kiss": format_kiss(generate_fsm(spec)),
        "name": spec.name,
        "frequencies_mhz": [100.0],
        "num_cycles": NUM_CYCLES,
        "seed": program_seed,
    })


def hot_bodies(seed: int) -> Dict[bytes, str]:
    """The 18 hot bodies and their labels."""
    from repro.bench.suite import PAPER_BENCHMARKS

    # Frequency-major order: when these are sent in order, a benchmark's
    # second frequency finds every stage but ``power`` cached.
    return {
        encode({
            "benchmark": name, "frequencies_mhz": [freq],
            "num_cycles": NUM_CYCLES, "seed": PAPER_SEED + seed,
        }): f"{name}@{freq:g}"
        for freq in HOT_FREQUENCIES_MHZ for name in PAPER_BENCHMARKS
    }


def build_schedule(seed: int, seconds: float) -> List[Request]:
    """The seeded request schedule: same seed, same requests."""
    rng = random.Random(f"perfbench-service-{seed}")
    periods = max(seconds, MIN_SECONDS)
    periods = ROUND_SECONDS * math.ceil(periods / ROUND_SECONDS)
    order = list(range(periods))
    rng.shuffle(order)
    hot = list(hot_bodies(seed).items())
    assert len(hot) == HOT_BODIES
    repeats: List[Tuple[bytes, str]] = []
    while len(repeats) < periods * (len(SLOTS) - 1):
        rng.shuffle(hot)
        repeats.extend(hot)
    draws = iter(repeats)
    schedule = []
    for second, k in enumerate(order):
        label = f"g{seed}_{k}"
        body = fresh_body(fresh_spec(k, label), PAPER_SEED + seed)
        schedule.append(Request(second + SLOTS[0], body, label))
        for offset in SLOTS[1:]:
            body, label = next(draws)
            schedule.append(Request(second + offset, body, label))
    return schedule


def send_all(port: int, bodies: List[bytes]) -> List[Tuple[int, bytes]]:
    """POST every body to /v1/evaluate over ``CONNECTIONS`` connections."""
    replies: List[Optional[Tuple[int, bytes]]] = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            replies[index] = post(port, "/v1/evaluate", bodies[index])

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(REQUEST_TIMEOUT_S * len(bodies))
    return replies


def payload_of(status: int, body: bytes) -> Optional[bytes]:
    """The canonical ``result`` of a successful reply, else None."""
    if status != 200:
        return None
    reply = json.loads(body)
    return encode(reply["result"]) if reply.get("ok") is True else None


def post(port: int, path: str, body: Optional[bytes]) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        if body is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, body,
                         headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape(port: int) -> Dict[str, float]:
    """``/metrics`` as ``{"name{labels}": value}`` (comments dropped)."""
    status, text = post(port, "/metrics", None)
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    samples: Dict[str, float] = {}
    for line in text.decode().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
    return samples


def family(samples: Dict[str, float], name: str) -> Dict[str, float]:
    """Samples of one metric family keyed by their label text."""
    return {
        key[len(name):]: value for key, value in samples.items()
        if key == name or key.startswith(name + "{")
    }


def lateness_trend(lateness: List[float]) -> float:
    """Median lateness of the last quarter minus that of the first."""
    quarter = max(1, len(lateness) // 4)
    return median(lateness[-quarter:]) - median(lateness[:quarter])


class ServiceWorkload:
    name = "service"

    def setup(self, ctx: Context) -> None:
        from repro.service.server import CompileServer, ServerConfig

        workers = ServerConfig().jobs
        self.cache_dir = str(ctx.dirs.new_dir("service-cache-"))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-server", daemon=True
        )
        self.thread.start()

        async def start():
            server = CompileServer(
                ServerConfig(host="127.0.0.1", port=0, cache=self.cache_dir)
            )
            return await server.start()

        self.server = asyncio.run_coroutine_threadsafe(start(), self.loop).result(60)
        self.port = self.server.port
        # One warm-up per pool worker, concurrently, so all workers are
        # spawned before the clock starts.  The machines lie far past any
        # schedule's corpus, so no measured body is pre-cached.
        bodies = [
            fresh_body(fresh_spec(1000 + k, f"warmup{k}"), PAPER_SEED)
            for k in range(min(workers, CONNECTIONS))
        ]
        replies = send_all(self.port, bodies)
        if any(r is None or r[0] != 200 for r in replies):
            raise RuntimeError(f"service warm-up failed: {replies}")

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            asyncio.run_coroutine_threadsafe(server.stop(), self.loop).result(60)
            self.server = None
        loop = getattr(self, "loop", None)
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            self.thread.join(30)
            loop.close()
            self.loop = None

    def run(self, ctx: Context, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        schedule = build_schedule(ctx.seed, seconds)
        results: List[Optional[Tuple[float, float, float, int, bytes]]] = (
            [None] * len(schedule)
        )
        seen: Dict[bytes, bytes] = {}
        hot = hot_bodies(ctx.seed)
        for _ in range(1 + WARMUP_ROUNDS):
            for body, reply in zip(hot, send_all(self.port, list(hot))):
                out.ops += 1
                payload = payload_of(*reply) if reply is not None else None
                if payload is None:
                    out.errors += 1
                    out.fail(f"{hot[body]} (before the clock): {reply!r:.200}")
                elif seen.setdefault(body, payload) != payload:
                    out.fail(f"{hot[body]} (before the clock): repeat payload differs")
        before = scrape(self.port)
        lock = threading.Lock()
        cursor = [0]

        def client() -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(schedule):
                    return
                request = schedule[index]
                due = start + request.offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                try:
                    status, body = post(self.port, "/v1/evaluate", request.body)
                except (OSError, http.client.HTTPException) as exc:
                    status, body = 0, repr(exc).encode()
                done = time.perf_counter()
                if tracer is not None:
                    tracer.record("client.request", sent, done)
                results[index] = (due, sent, done, status, body)

        threads = [
            threading.Thread(
                target=client, name=f"perfbench-client-{k}", daemon=True
            )
            for k in range(CONNECTIONS)
        ]
        # The speed references are timed before and after the schedule
        # and every second while it runs, at ``PAUSE_AT`` after a garbage
        # collection, from this otherwise idle thread.
        speed = out.calibration["cold"]
        out.calibration["warm"] = speed
        echo = EchoReference()
        try:
            round_trips = out.calibration["echo"]
            calibrate(speed, 10)
            echo.sample(round_trips, 10)
            gc.collect()
            start = time.perf_counter() + 0.05
            for t in threads:
                t.start()
            second = 0
            while any(t.is_alive() for t in threads):
                pause = start + second + PAUSE_AT - time.perf_counter()
                second += 1
                if pause > 0:
                    time.sleep(pause)
                gc.collect()
                calibrate(speed, 1)
                echo.sample(round_trips, 2)
            for t in threads:
                t.join()
            out.intervals.append((start, time.perf_counter()))
            calibrate(speed, 10)
            echo.sample(round_trips, 10)
        finally:
            echo.close()
        after = scrape(self.port)

        lateness = []
        in_flight_s = 0.0
        for request, result in zip(schedule, results):
            out.ops += 1
            due, sent, done, status, body = result
            lateness.append(sent - due)
            in_flight_s += done - sent
            payload = payload_of(status, body)
            if payload is None:
                out.errors += 1
                out.fail(f"{request.label}: HTTP {status} {body[:200]!r}")
                continue
            if request.body not in seen:
                seen[request.body] = payload
                out.cold.append(done - due)
                continue
            out.warm.append(done - due)
            if seen[request.body] != payload:
                out.fail(f"{request.label}: repeat payload differs")

        def delta(name: str) -> Dict[str, float]:
            old = family(before, name)
            return {k: v - old.get(k, 0.0) for k, v in family(after, name).items()}

        crashes = sum(delta("romfsm_worker_crashes_total").values())
        rejected = sum(delta("romfsm_rejections_total").values())
        if crashes or rejected:
            out.fail(f"/metrics: {crashes:g} worker crashes, {rejected:g} rejections")
        out.layers.update({
            "service.worker_crashes": crashes,
            "service.rejected": rejected,
            "service.coalesced": sum(delta("romfsm_coalesced_requests_total").values()),
            "service.executions": sum(delta("romfsm_pipeline_runs_total").values()),
            "client.lateness_s.p50": median(lateness),
            "client.lateness_s.max": max(lateness),
        })
        seconds_by_stage = delta("romfsm_stage_seconds_total")
        hits_by_stage = delta("romfsm_stage_cache_hits_total")
        for labels, value in seconds_by_stage.items():
            stage = labels.split('"')[1]
            out.layers[f"pipeline.{stage}.s"] = value
            out.layers[f"pipeline.{stage}.hits"] = hits_by_stage.get(labels, 0.0)
        out.info["in_flight_s"] = in_flight_s
        trend = lateness_trend(lateness)
        out.info["lateness_trend_s"] = trend
        out.info["fell_behind"] = trend > BEHIND_MARGIN_S
        out.info["requests"] = {"cold": len(out.cold), "warm": len(out.warm)}
        out.info["peak_rss_mb"] = "benchmark process only; pool workers excluded"
        return out
