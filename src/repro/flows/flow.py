"""The experimental flow of the paper's Fig. 6, end to end.

For a benchmark FSM this module produces both implementations, drives
them with a shared stimulus, verifies cycle-exact equivalence against
the reference machine (the step the paper performs implicitly by
construction), extracts switching activities, and runs the power
estimator at the requested clock frequencies.

The flow itself is the staged pipeline of :mod:`repro.pipeline.stages`
(``parse`` → ``complete-encode`` → ``ff-synth`` → ``rom-map`` →
``rom-cc`` → ``simulate`` → ``activity`` → ``power``); this module
assembles the stage artifacts into the :class:`EvaluationResult` the
tables consume, and shards independent evaluations across worker
processes (:func:`evaluate_many`).  Pass ``cache=`` (a directory or an
:class:`~repro.pipeline.cache.ArtifactCache`) to serve repeated stages
from the content-addressed artifact store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.arch.device import Device
from repro.arch.timing import TimingReport
from repro.fsm.kiss import format_kiss
from repro.fsm.machine import FSM
from repro.pipeline.cache import ArtifactCache, resolve_cache
from repro.pipeline.driver import RunManifest, run_sharded
from repro.pipeline.pipeline import PipelineReport
from repro.pipeline.stages import (
    PowerBundle,
    build_evaluation_pipeline,
    paper_moore_output_mode,
)
from repro.power.estimator import PowerReport
from repro.power.params import PowerParams, VIRTEX2_PARAMS
from repro.romfsm.impl import RomFsmImplementation
from repro.romfsm.mapper import map_fsm_to_rom
from repro.synth.ff_synth import FfImplementation

__all__ = [
    "PAPER_FREQUENCIES_MHZ",
    "EvaluationResult",
    "implement_rom",
    "evaluate_benchmark",
    "evaluate_benchmark_detailed",
    "evaluate_many",
    "evaluation_config",
    "moore_output_mode",
]

# The three clock rates of the paper's Tables 2 and 3.
PAPER_FREQUENCIES_MHZ: Tuple[float, ...] = (50.0, 85.0, 100.0)

DEFAULT_CYCLES = 2000

# Re-exported for API compatibility; the rule lives with the stages now.
moore_output_mode = paper_moore_output_mode


@dataclass
class EvaluationResult:
    """Everything one benchmark contributes to the paper's tables."""

    fsm: FSM
    ff_impl: FfImplementation
    rom_impl: RomFsmImplementation
    rom_cc_impl: Optional[RomFsmImplementation]
    # Power per frequency, keyed "{freq:g}".
    ff_power: Dict[str, PowerReport]
    rom_power: Dict[str, PowerReport]
    rom_cc_power: Dict[str, PowerReport]
    achieved_idle_fraction: float
    ff_timing: TimingReport
    rom_timing: TimingReport
    rom_cc_timing: Optional[TimingReport]

    def saving_percent(self, frequency_mhz: float = 100.0) -> float:
        """Table 2's headline: ROM saving over FF at ``frequency_mhz``."""
        key = f"{frequency_mhz:g}"
        return 100.0 * self.rom_power[key].saving_vs(self.ff_power[key])

    def cc_saving_percent(self, frequency_mhz: float = 100.0) -> float:
        """Table 3's headline: ROM+clock-control saving over FF."""
        key = f"{frequency_mhz:g}"
        return 100.0 * self.rom_cc_power[key].saving_vs(self.ff_power[key])


def implement_rom(
    fsm: FSM, clock_control: bool = False, **mapper_kwargs
) -> RomFsmImplementation:
    """Map the FSM into BRAMs with the benchmark's output placement."""
    mapper_kwargs.setdefault("moore_outputs", moore_output_mode(fsm))
    return map_fsm_to_rom(fsm, clock_control=clock_control, **mapper_kwargs)


def evaluation_config(
    name_or_fsm: Union[str, FSM],
    frequencies_mhz: Sequence[float] = PAPER_FREQUENCIES_MHZ,
    num_cycles: int = DEFAULT_CYCLES,
    idle_fraction: float = 0.5,
    seed: int = 2004,
    encoding: str = "binary",
    device: Optional[Device] = None,
    params: PowerParams = VIRTEX2_PARAMS,
    with_clock_control: bool = True,
    verify: bool = True,
    rom_encoding: Optional[str] = None,
    force_compaction: bool = False,
    aspect: Optional[str] = None,
    moore_outputs: Optional[str] = None,
    lut_k: Optional[int] = None,
) -> Dict[str, Any]:
    """Build the pipeline config dict for one benchmark evaluation.

    A named benchmark is keyed by its name; an ad-hoc FSM object is
    keyed by its canonical KISS2 text, so the same machine reaches the
    same cache entries however it enters the flow.

    ``rom_encoding``/``force_compaction``/``aspect`` plumb a tuned
    mapper configuration (e.g. a :mod:`repro.tune` frontier point) into
    the ``rom-map``/``rom-cc`` stages; the defaults reproduce the
    paper's fixed heuristic bit-for-bit.
    """
    config: Dict[str, Any] = {
        "frequencies": tuple(float(f) for f in frequencies_mhz),
        "num_cycles": num_cycles,
        "idle_fraction": idle_fraction,
        "seed": seed,
        "encoding": encoding,
        "device": device,
        "params": params,
        "with_clock_control": with_clock_control,
        "verify": verify,
        "rom_encoding": rom_encoding,
        "force_compaction": bool(force_compaction),
        "aspect": aspect,
    }
    # Stored only when they deviate from the paper defaults, so cache
    # keys (which read absent keys as None) are unchanged for every
    # pre-existing artifact.
    if moore_outputs is not None:
        config["moore_outputs"] = moore_outputs
    if lut_k is not None and int(lut_k) != 4:
        config["lut_k"] = int(lut_k)
    if isinstance(name_or_fsm, str):
        config["benchmark"] = name_or_fsm
    else:
        config["fsm"] = name_or_fsm
        config["kiss"] = format_kiss(name_or_fsm)
        config["name"] = name_or_fsm.name
        config["states"] = tuple(name_or_fsm.states)
        config["reset"] = name_or_fsm.reset_state
    return config


def _assemble_result(result) -> EvaluationResult:
    # Reads only the stages it reports: on a warm run the simulate,
    # activity and complete-encode values stay pickled on disk.
    power: PowerBundle = result.value("power")
    return EvaluationResult(
        fsm=result.value("parse"),
        ff_impl=result.value("ff-synth"),
        rom_impl=result.value("rom-map"),
        rom_cc_impl=result.get("rom-cc"),
        ff_power=power.ff_power,
        rom_power=power.rom_power,
        rom_cc_power=power.rom_cc_power,
        achieved_idle_fraction=power.achieved_idle_fraction,
        ff_timing=power.ff_timing,
        rom_timing=power.rom_timing,
        rom_cc_timing=power.rom_cc_timing,
    )


def evaluate_benchmark_detailed(
    name_or_fsm: Union[str, FSM],
    cache: Union[None, bool, str, ArtifactCache] = None,
    should_cancel=None,
    **kwargs,
) -> Tuple[EvaluationResult, PipelineReport]:
    """Run the Fig. 6 flow; also return the stage-by-stage run report.

    ``should_cancel`` is polled at stage boundaries (see
    :meth:`~repro.pipeline.pipeline.Pipeline.run`); the service passes
    it so an evaluation every requester has abandoned stops early.
    """
    config = evaluation_config(name_or_fsm, **kwargs)
    pipeline = build_evaluation_pipeline(
        with_clock_control=config["with_clock_control"]
    )
    outcome = pipeline.run(
        config, cache=resolve_cache(cache), should_cancel=should_cancel
    )
    return _assemble_result(outcome), outcome.report


def evaluate_benchmark(
    name_or_fsm: Union[str, FSM],
    frequencies_mhz: Sequence[float] = PAPER_FREQUENCIES_MHZ,
    num_cycles: int = DEFAULT_CYCLES,
    idle_fraction: float = 0.5,
    seed: int = 2004,
    encoding: str = "binary",
    device: Optional[Device] = None,
    params: PowerParams = VIRTEX2_PARAMS,
    with_clock_control: bool = True,
    verify: bool = True,
    cache: Union[None, bool, str, ArtifactCache] = None,
    rom_encoding: Optional[str] = None,
    force_compaction: bool = False,
    aspect: Optional[str] = None,
    moore_outputs: Optional[str] = None,
    lut_k: Optional[int] = None,
) -> EvaluationResult:
    """Run the full Fig. 6 flow for one benchmark.

    Table 2 numbers (ff_power/rom_power) use uniform random stimulus;
    Table 3 numbers (rom_cc_power) use the idle-biased stimulus with the
    requested target fraction, with the clock-control design verified on
    it as well.  ``rom_encoding``/``force_compaction``/``aspect`` replay
    a tuned mapper configuration (see :mod:`repro.tune`).
    """
    result, _ = evaluate_benchmark_detailed(
        name_or_fsm,
        cache=cache,
        frequencies_mhz=frequencies_mhz,
        num_cycles=num_cycles,
        idle_fraction=idle_fraction,
        seed=seed,
        encoding=encoding,
        device=device,
        params=params,
        with_clock_control=with_clock_control,
        verify=verify,
        rom_encoding=rom_encoding,
        force_compaction=force_compaction,
        aspect=aspect,
        moore_outputs=moore_outputs,
        lut_k=lut_k,
    )
    return result


def _evaluate_shard(item) -> Tuple[str, EvaluationResult, PipelineReport]:
    """Top-level worker for :func:`run_sharded` (must be picklable)."""
    label, name_or_fsm, kwargs, cache = item
    result, report = evaluate_benchmark_detailed(
        name_or_fsm, cache=cache, **kwargs
    )
    return label, result, report


def evaluate_many(
    benchmarks: Sequence[Union[str, FSM]],
    jobs: int = 1,
    cache: Union[None, bool, str, ArtifactCache] = None,
    max_retries: int = 2,
    **kwargs,
) -> Tuple[Dict[str, EvaluationResult], RunManifest]:
    """Evaluate many benchmarks, sharded across ``jobs`` processes.

    Returns the results keyed by benchmark name (input order preserved:
    Python dicts iterate in insertion order) plus the run manifest with
    stage timings and cache hit/miss counts.  Shards lost to a crashed
    pool worker are retried up to ``max_retries`` times (see
    :func:`repro.pipeline.driver.run_sharded`).
    """
    resolved = resolve_cache(cache)
    if resolved is None:
        # False (not None) keeps a "caching off" decision from falling
        # through to REPRO_CACHE_DIR when the shard re-resolves it.
        shard_cache: Union[bool, str, ArtifactCache] = False
    elif jobs <= 1:
        # Inline shards share the caller's cache, so its statistics and
        # its degraded state span the whole run.
        shard_cache = resolved
    else:
        # Pool workers open the same directory themselves.
        shard_cache = str(resolved.root)
    items = []
    for entry in benchmarks:
        label = entry if isinstance(entry, str) else entry.name
        items.append((label, entry, kwargs, shard_cache))

    start = time.perf_counter()
    shards = run_sharded(_evaluate_shard, items, jobs=jobs, max_retries=max_retries)
    wall = time.perf_counter() - start

    results: Dict[str, EvaluationResult] = {}
    manifest = RunManifest(jobs=max(1, jobs), wall_seconds=wall)
    for label, result, report in shards:
        results[label] = result
        manifest.add_report(report)
    return results, manifest
