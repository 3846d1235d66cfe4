"""The :class:`Pipeline` executor.

Runs stages in declared order (which must be a topological order of the
dependency graph — validated at construction), consulting an optional
:class:`~repro.pipeline.cache.ArtifactCache` before each stage and
recording a :class:`StageRecord` (key, hit/miss, wall seconds) per
stage for the run manifest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro import faults
from repro.pipeline.artifact import Artifact, fingerprint
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.stage import Stage, StageContext

__all__ = [
    "Pipeline",
    "PipelineCancelled",
    "PipelineError",
    "PipelineReport",
    "PipelineResult",
    "StageRecord",
]


class PipelineError(ValueError):
    """Malformed pipeline: duplicate stage names or unresolvable deps."""


class PipelineCancelled(RuntimeError):
    """Raised between stages when a run's ``should_cancel`` turns true.

    Carries the partial report so callers (the service's timed-out
    requests in particular) can still account for the stages that ran.
    """

    def __init__(self, stage: str, report: "PipelineReport"):
        super().__init__(f"pipeline cancelled before stage {stage!r}")
        self.stage = stage
        self.report = report


@dataclass(frozen=True)
class StageRecord:
    """Observability record for one stage execution."""

    stage: str
    version: str
    key: str
    cache_hit: bool
    seconds: float
    fingerprint: str


@dataclass
class PipelineReport:
    """All stage records of one pipeline run."""

    records: List[StageRecord] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def misses(self) -> int:
        return sum(1 for r in self.records if not r.cache_hit)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.records)


@dataclass
class PipelineResult:
    """Artifacts plus the run report of one pipeline execution."""

    artifacts: Dict[str, Artifact]
    report: PipelineReport

    def value(self, name: str) -> Any:
        return self.artifacts[name].value

    def get(self, name: str, default: Any = None) -> Any:
        art = self.artifacts.get(name)
        return default if art is None else art.value


class Pipeline:
    """An ordered DAG of stages executed with content-addressed caching."""

    def __init__(self, stages: Sequence[Stage]):
        seen: Dict[str, Stage] = {}
        for stage in stages:
            if stage.name in seen:
                raise PipelineError(f"duplicate stage name {stage.name!r}")
            for dep in stage.deps:
                if dep not in seen:
                    raise PipelineError(
                        f"stage {stage.name!r} depends on {dep!r}, which is "
                        f"not declared earlier in the pipeline"
                    )
            seen[stage.name] = stage
        self.stages: List[Stage] = list(stages)

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r}")

    def run(
        self,
        config: Mapping[str, Any],
        cache: Optional[ArtifactCache] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> PipelineResult:
        """Execute the stages in order.

        ``should_cancel`` (when given) is polled before each stage; a
        true result raises :class:`PipelineCancelled` with the partial
        report, so a long run can be abandoned at the next stage
        boundary once every requester has given up on it.
        """
        artifacts: Dict[str, Artifact] = {}
        records: List[StageRecord] = []
        for stage in self.stages:
            if should_cancel is not None and should_cancel():
                raise PipelineCancelled(stage.name, PipelineReport(records))
            # Chaos hook: a "raise" rule here aborts the run with a
            # typed FaultInjected at a stage boundary, a "stall" rule
            # models a slow stage.
            faults.hit("pipeline.stage", stage=stage.name)
            dep_fps = {dep: artifacts[dep].fingerprint for dep in stage.deps}
            key = stage.cache_key(dep_fps, config)
            start = time.perf_counter()
            # A hit keeps the cache's artifact as it is: its value is
            # unpickled only if a later stage or the caller reads it.
            art = cache.get(key) if cache is not None else None
            hit = art is not None
            if not hit:
                value = stage.func(StageContext(config, artifacts))
                art = Artifact(value=value, fingerprint=fingerprint(value))
                if cache is not None:
                    cache.put(key, art.fingerprint, value)
            artifacts[stage.name] = art
            records.append(
                StageRecord(
                    stage=stage.name,
                    version=stage.version,
                    key=key,
                    cache_hit=hit,
                    seconds=time.perf_counter() - start,
                    fingerprint=art.fingerprint,
                )
            )
        return PipelineResult(artifacts=artifacts, report=PipelineReport(records))
