"""Machine-speed calibration.

The host this benchmark runs on is shared: the same code runs 20-40%
slower for seconds to minutes at a time.  A run therefore times a fixed
pure-Python reference workload (dict and big-int arithmetic, a sort, an
unpickle and a CRC, the operations the program's hot paths are made
of) next to the work it measures, and reports each time scaled towards
a nominal machine on which the reference takes ``NOMINAL_S``::

    reported = measured * (NOMINAL_S / median(reference samples)) ** SENSITIVITY

The small, cache-resident reference reacts more strongly to the host's
speed than the program does: in fast periods it ran 1.5-1.7x faster
while the passes ran 1.1-1.3x faster, and full scaling (exponent 1)
then spread cold passes by 38% over ten runs.  Over two sets of ten
runs per workload, the square root kept every spread at or below 17%,
against up to 30% unscaled and 38% fully scaled.

The reference does not touch the program, so a change to the program
moves the reported times exactly as it moves the measured ones.  Short
operations are bracketed by reference samples; a long one (a cold pass)
is sampled from inside by :class:`InPassProbe`, whose own time is then
taken out of the measured time.

A service request hops between threads and processes, and in slow
periods the host's load hit those hops far harder than the in-process
reference showed (repeats up to 1.6x slower, the reference 1.1-1.3x or
not at all).  :class:`EchoReference` times the reference behind the
same kind of hops, an HTTP round trip to another process, and the
service's repeat latency is scaled by it in full (:func:`echo_factor`).
"""

from __future__ import annotations

import gc
import http.client
import pickle
import random
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from statistics import median
from typing import Iterator, List, Sequence, Tuple

__all__ = [
    "ECHO_NOMINAL_S",
    "NOMINAL_S",
    "SENSITIVITY",
    "EchoReference",
    "InPassProbe",
    "calibrate",
    "echo_factor",
    "factor",
]

NOMINAL_S = 0.010
SENSITIVITY = 0.5
# The echo round trip is scaled in full: it is itself a small request.
ECHO_NOMINAL_S = 0.012

_BLOB = pickle.dumps(
    {i: (str(i) * 3, [i, i * 2.5, {"k": i}]) for i in range(1200)}
)


def _reference() -> int:
    rng = random.Random(7)
    table = {}
    for i in range(9000):
        key = rng.randrange(997)
        table[key] = table.get(key, 0) ^ (i << (i % 61))
    acc = 0
    for value in table.values():
        acc ^= value
    obj = pickle.loads(_BLOB)
    ordered = sorted(obj.items(), key=lambda kv: kv[1][0])
    return acc ^ zlib.crc32(_BLOB) ^ len(ordered)


def calibrate(samples: List[float], count: int) -> None:
    """Append ``count`` timings of the reference workload to ``samples``.

    The cyclic garbage collector is paused while it runs: a collection
    started by the reference's allocations would scan the program's
    heap, and the reference would then time the heap, not the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            t0 = time.perf_counter()
            _reference()
            samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


def factor(samples: List[float]) -> float:
    """Scale from this run's machine speed towards the nominal machine."""
    return (NOMINAL_S / median(samples)) ** SENSITIVITY


def echo_factor(samples: List[float]) -> float:
    """Scale from this run's :class:`EchoReference` round trips to nominal."""
    return ECHO_NOMINAL_S / median(samples)


class InPassProbe:
    """Times the reference every ``period_s`` from inside a long call.

    :meth:`hooked` patches class methods the call invokes often (cache
    reads and writes) so that each one first gives the probe a chance to
    run.  ``spent`` is the wall time the probe took, to subtract from the
    measured time.
    """

    def __init__(self, samples: List[float], period_s: float = 0.2):
        self.samples = samples
        self.period_s = period_s
        self.spent = 0.0
        self._last = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last < self.period_s:
            return
        calibrate(self.samples, 1)
        self._last = time.perf_counter()
        self.spent += self._last - now

    @contextmanager
    def hooked(self, methods: Sequence[Tuple[type, str]]) -> Iterator["InPassProbe"]:
        originals = [(cls, name, cls.__dict__[name]) for cls, name in methods]

        def hook(original):
            def probed(*args, **kwargs):
                self.tick()
                return original(*args, **kwargs)
            return probed

        try:
            for cls, name, original in originals:
                setattr(cls, name, hook(original))
            yield self
        finally:
            for cls, name, original in originals:
                setattr(cls, name, original)


class _EchoHandler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 - http.server's naming
        self.rfile.read(int(self.headers["Content-Length"]))
        body = str(_reference()).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def serve_echo() -> None:
    """Answer each POST after one run of the reference (child process)."""
    server = HTTPServer(("127.0.0.1", 0), _EchoHandler)
    print(server.server_address[1], flush=True)
    server.serve_forever()


class EchoReference:
    """The reference workload behind an HTTP round trip to another process.

    A sample is one POST, on a fresh connection, to a child process
    that runs the reference once and answers: a request with the hops
    of a service request (a thread of this process, the loopback
    socket, another process woken from idle) but none of the program.
    """

    def __init__(self):
        here = str(Path(__file__).resolve().parent)
        self.proc = subprocess.Popen(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {here!r}); "
             "import speed; speed.serve_echo()"],
            stdout=subprocess.PIPE, text=True,
        )
        self.port = int(self.proc.stdout.readline())

    def sample(self, samples: List[float], count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            try:
                conn.request("POST", "/", b"x")
                conn.getresponse().read()
            finally:
                conn.close()
            samples.append(time.perf_counter() - t0)

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait(30)
        self.proc.stdout.close()

