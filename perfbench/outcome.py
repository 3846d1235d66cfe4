"""What a workload's measured run hands back, and the shared timing loop."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from sandbox import RunDirs
from speed import InPassProbe, calibrate

__all__ = [
    "Context",
    "InProcessCounters",
    "Outcome",
    "PAPER_SEED",
    "repeat_warm",
    "time_cold",
]

# The paper campaign's stimulus seed.  Benchmark seed n gives program
# seed PAPER_SEED + n, so seed 0 reproduces the committed tables.
PAPER_SEED = 2004

# Per-run ceiling on the measured phase, well inside a run's time limit.
HARD_CAP_S = 120.0


@dataclass
class Context:
    """Inputs of one run: the seed, the checkout and the private dirs."""

    seed: int
    checkout: Path
    dirs: RunDirs

    @property
    def program_seed(self) -> int:
        return PAPER_SEED + self.seed


@dataclass
class Outcome:
    """Latencies (seconds), counts and checks of one measured run."""

    cold: List[float] = field(default_factory=list)
    warm: List[float] = field(default_factory=list)
    # Reference-workload timings taken next to the cold and warm samples
    # (see speed.py).
    calibration: Dict[str, List[float]] = field(
        default_factory=lambda: {"cold": [], "warm": [], "echo": []}
    )
    ops: int = 0
    errors: int = 0
    failures: List[str] = field(default_factory=list)
    # Per-layer values the workload reads itself (counters, /metrics).
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    # The measured stretches of work, as (start, end) clock readings.
    intervals: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def start(self) -> float:
        return self.intervals[0][0]

    @property
    def end(self) -> float:
        return self.intervals[-1][1]

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)


class InProcessCounters:
    """Counts the program exports, for workloads that run in this process.

    Reads ``codegen.stats()`` before and after, and the bytes the run's
    cache holds at the end.  ``probe_methods`` are the cache methods a
    cold pass calls often enough to host the in-pass speed probe.
    """

    def __init__(self):
        from repro.pipeline.cache import ArtifactCache
        from repro.synth import codegen

        self._cache_class = ArtifactCache
        self._codegen = codegen
        self._before = codegen.stats()
        self.probe_methods = ((ArtifactCache, "get"), (ArtifactCache, "put"))

    def record(self, outcome: "Outcome", cache_dir: str) -> None:
        after = self._codegen.stats()
        outcome.layers["synth.compiles"] = after.compiles - self._before.compiles
        outcome.layers["synth.fallbacks"] = after.fallbacks - self._before.fallbacks
        outcome.layers["cache.put.bytes"] = self._cache_class(cache_dir).size_bytes


def time_cold(op: Callable[[], Any], outcome: Outcome, probe_methods) -> Any:
    """Time one cold ``op``; returns its result.

    The reference workload is timed ten times before and after, and from
    inside the call at every ``probe_methods`` call that comes at least
    0.2 s after the last sample; the probe's own time is not counted.
    """
    speed = outcome.calibration["cold"]
    calibrate(speed, 10)
    gc.collect()
    probe = InPassProbe(speed)
    with probe.hooked(probe_methods):
        t0 = time.perf_counter()
        result = op()
        t1 = time.perf_counter()
    outcome.cold.append(t1 - t0 - probe.spent)
    outcome.intervals.append((t0, t1))
    calibrate(speed, 10)
    return result


def repeat_warm(
    op: Callable[[], Any],
    check: Callable[[Any], None],
    outcome: Outcome,
    start: float,
    seconds: float,
    min_count: int,
) -> None:
    """Time ``op`` until ``seconds`` after ``start`` and ``min_count`` samples.

    Each call is preceded by one timing of the reference workload and by
    a full garbage collection, outside the clock, so every sample starts
    from the same heap state instead of paying for garbage earlier
    samples left.  ``check`` sees each result after the clock stops.
    """
    speed = outcome.calibration["warm"]
    count = 0
    while count < min_count or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_CAP_S:
            break
        calibrate(speed, 1)
        gc.collect()
        t0 = time.perf_counter()
        result = op()
        t1 = time.perf_counter()
        outcome.warm.append(t1 - t0)
        outcome.intervals.append((t0, t1))
        check(result)
        count += 1
