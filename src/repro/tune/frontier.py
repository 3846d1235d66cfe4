"""Pareto frontier representation, artifacts, and replay.

The frontier is the tuner's deliverable: the set of evaluated
candidates no other evaluated candidate beats on every objective
(power, area, delay — all minimised).  Each point carries its full
candidate configuration and fitness dict, so any point can be replayed
bit-identically: re-map and re-score the stored candidate under the
artifact's evaluation settings and the objectives match
float-for-float (floats survive a ``json`` round-trip exactly).

Determinism contract: :meth:`TuneResult.canonical_json` contains no
wall-clock, host, or scheduling information — two runs of the same
search (any process count, fresh or warm cache, through worker-crash
retries) serialise to the same bytes.  Timing and throughput live only
in :meth:`TuneResult.to_artifact`'s ``stats`` block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.arch.memblock import VIRTEX2_BRAM
from repro.tune.space import TuneCandidate

__all__ = [
    "OBJECTIVES",
    "FrontierPoint",
    "TuneResult",
    "dominates",
    "load_frontier",
    "pareto_front",
]

# Objective keys in canonical order; every one is minimised.
OBJECTIVES: Tuple[str, ...] = ("power_mw", "area", "delay_ns")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and strictly
    better somewhere (both are objective vectors, minimised)."""
    no_worse = all(x <= y for x, y in zip(a, b))
    strictly = any(x < y for x, y in zip(a, b))
    return no_worse and strictly


@dataclass(frozen=True)
class FrontierPoint:
    """One non-dominated candidate with its measured fitness."""

    candidate: TuneCandidate
    fitness: Dict[str, Any]
    # How many grid candidates collapsed onto this implementation
    # (implementation-fingerprint dedupe); the stored candidate is the
    # enumeration-first representative.
    group_size: int = 1
    impl_fingerprint: str = ""

    @property
    def objectives(self) -> Tuple[float, ...]:
        return tuple(float(self.fitness[key]) for key in OBJECTIVES)

    @property
    def power_mw(self) -> float:
        return float(self.fitness["power_mw"])

    @property
    def area(self) -> float:
        return float(self.fitness["area"])

    @property
    def delay_ns(self) -> float:
        return float(self.fitness["delay_ns"])

    def as_dict(self) -> Dict[str, Any]:
        return {
            "candidate": self.candidate.as_dict(),
            "candidate_fingerprint": self.candidate.fingerprint,
            "fitness": self.fitness,
            "group_size": self.group_size,
            "impl_fingerprint": self.impl_fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FrontierPoint":
        return cls(
            candidate=TuneCandidate.from_dict(data["candidate"]),
            fitness=dict(data["fitness"]),
            group_size=int(data.get("group_size", 1)),
            impl_fingerprint=str(data.get("impl_fingerprint", "")),
        )


def pareto_front(points: Sequence[FrontierPoint]) -> List[FrontierPoint]:
    """The non-dominated subset in canonical order.

    Points with identical objective vectors all survive (none strictly
    beats another); the result is sorted by (objectives, candidate
    fingerprint), so it is independent of input order.
    """
    front = [
        p for p in points
        if not any(
            dominates(q.objectives, p.objectives)
            for q in points if q is not p
        )
    ]
    front.sort(key=lambda p: (p.objectives, p.candidate.fingerprint))
    return front


@dataclass
class TuneResult:
    """Everything one tuning run produced for one benchmark."""

    benchmark: str
    frontier: List[FrontierPoint]
    baseline: FrontierPoint
    settings: Dict[str, Any]
    space: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def best_power(self) -> FrontierPoint:
        """The frontier's minimum-power point (canonical tie-break)."""
        return min(
            self.frontier,
            key=lambda p: (p.power_mw, p.objectives, p.candidate.fingerprint),
        )

    def best_power_saving_percent(self) -> float:
        """Best frontier power vs the fixed-heuristic baseline, in %."""
        base = self.baseline.power_mw
        if base == 0:
            return 0.0
        return 100.0 * (1.0 - self.best_power.power_mw / base)

    # -- serialization -------------------------------------------------

    def _payload(self, include_stats: bool) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": "repro.tune/frontier-v1",
            "benchmark": self.benchmark,
            # The frontier-v1 schema names the target memory block.
            "backend": VIRTEX2_BRAM.name,
            "settings": dict(sorted(self.settings.items())),
            "space": self.space,
            "baseline": self.baseline.as_dict(),
            "frontier": [p.as_dict() for p in self.frontier],
        }
        if include_stats:
            payload["stats"] = self.stats
        return payload

    def canonical_json(self) -> str:
        """Byte-stable serialisation — the determinism-test currency.

        Excludes ``stats`` (wall-clock, throughput, scheduling-dependent
        counters); everything else is a pure function of (benchmark,
        space, settings).
        """
        return json.dumps(
            self._payload(include_stats=False),
            sort_keys=True, separators=(",", ":"),
        )

    def to_artifact(self) -> Dict[str, Any]:
        """The full JSON artifact (canonical payload + run stats)."""
        return self._payload(include_stats=True)

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_artifact(), indent=2) + "\n")
        return path

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TuneResult":
        schema = data.get("schema")
        if schema != "repro.tune/frontier-v1":
            raise ValueError(f"not a tune frontier artifact (schema={schema!r})")
        return cls(
            benchmark=str(data["benchmark"]),
            frontier=[FrontierPoint.from_dict(p) for p in data["frontier"]],
            baseline=FrontierPoint.from_dict(data["baseline"]),
            settings=dict(data.get("settings", {})),
            space=dict(data.get("space", {})),
            stats=dict(data.get("stats", {})),
        )

    # -- presentation ----------------------------------------------------

    def format_table(self) -> str:
        """Human-readable frontier table for the CLI."""
        header = (
            f"Pareto frontier — {self.benchmark} on {VIRTEX2_BRAM.name} "
            f"({len(self.frontier)} point(s))"
        )
        cols = (
            f"{'#':>2}  {'power mW':>9}  {'area':>5}  {'delay ns':>8}  "
            f"{'brams':>5}  {'enc':<11} {'moore':<8} {'cc':<3} "
            f"{'compact':<7} {'aspect':<8}"
        )
        lines = [header, cols, "-" * len(cols)]
        for i, point in enumerate(self.frontier):
            c = point.candidate
            lines.append(
                f"{i:>2}  {point.power_mw:>9.4f}  {point.area:>5.0f}  "
                f"{point.delay_ns:>8.3f}  {point.fitness['brams']:>5}  "
                f"{c.encoding:<11} {c.moore_outputs:<8} "
                f"{'yes' if c.clock_control else 'no':<3} "
                f"{'yes' if c.force_compaction else 'no':<7} "
                f"{c.aspect or '-':<8}"
            )
        base = self.baseline
        lines.append(
            f"baseline (fixed heuristic): {base.power_mw:.4f} mW, "
            f"area {base.area:.0f}, delay {base.delay_ns:.3f} ns"
        )
        lines.append(
            f"best-power saving vs baseline: "
            f"{self.best_power_saving_percent():+.1f}%"
        )
        return "\n".join(lines)


def load_frontier(path: Union[str, Path]) -> TuneResult:
    """Read a frontier artifact written by :meth:`TuneResult.write`."""
    return TuneResult.from_dict(json.loads(Path(path).read_text()))
