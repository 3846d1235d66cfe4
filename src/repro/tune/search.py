"""The deterministic multi-objective search over mapper configurations.

Wall-clock scales with the *frontier*, not the grid, through three
mechanisms applied in order:

1. **Structural dedupe.** Every candidate is mapped (cheaply, in the
   driver, reusing one parsed FSM) and grouped by the tune-map artifact
   fingerprint: candidates that collapse onto the same implementation —
   pinning the aspect the heuristic would pick anyway, forcing a
   compaction the policy already took — share one evaluation.  The
   enumeration-first candidate represents the group.
2. **Exact bound pruning.** Area and delay of a mapped candidate are
   static; power has a provable floor (:func:`power_lower_bound`).
   Structures whose (floor, area, delay) vector is dominated by an
   already-evaluated point can never reach the frontier and are
   discarded unevaluated.  Structures are visited in ascending
   (floor, fingerprint) order so cheap likely-winners evaluate first
   and the archive prunes aggressively.
3. **Fitness memoisation.** Each evaluation runs the cached fitness
   pipeline (:mod:`repro.tune.fitness`); repeated searches — replays,
   widened grids, the second half of an A/B bench — hit the
   ``tune-fitness`` cache entry instead of simulating.

Evaluation batches dispatch onto :func:`repro.pipeline.driver.
run_sharded` (forkserver start method, worker-crash retry), with a
fixed batch size so the evaluated set — not just the frontier — is
identical at any ``jobs`` count.  Pruning is *exact* (never changes the
frontier versus brute force): see ``docs/architecture.md`` §15 for the
dominance argument.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.fsm.kiss import format_kiss
from repro.fsm.machine import FSM, FsmError
from repro.fsm.markov import clear_stationary_cache  # noqa: F401 (re-export)
from repro.logutil import get_logger, kv
from repro.pipeline.artifact import Artifact, fingerprint
from repro.pipeline.cache import ArtifactCache, resolve_cache
from repro.pipeline.driver import run_sharded
from repro.pipeline.stages import STAGE_VERSIONS
from repro.romfsm.mapper import MappingError, map_fsm_to_rom
from repro.tune.fitness import (
    DEFAULT_TUNE_CYCLES,
    DEFAULT_TUNE_FREQUENCY_MHZ,
    ImplBounds,
    build_tune_pipeline,
    tune_config,
)
from repro.tune.frontier import (
    FrontierPoint,
    TuneResult,
    dominates,
    pareto_front,
)
from repro.tune.space import TuneSpace, baseline_candidate, default_space

__all__ = ["tune_benchmark", "tune_many", "replay_point", "DEFAULT_BATCH_SIZE"]

logger = get_logger("tune.search")

# Structures per run_sharded dispatch.  Fixed (not jobs-derived) so the
# evaluated/pruned split is identical at any process count — part of
# the determinism contract, not just a scheduling knob.
DEFAULT_BATCH_SIZE = 8

# The search parks two small sidecar entries in the artifact cache next
# to each candidate's heavyweight tune-map/tune-fitness entries, both
# addressed off the candidate's tune-map cache key (computed in-driver
# from the parsed FSM's fingerprint — no pipeline run needed):
#
# * ``tune-bounds`` — the :class:`ImplBounds` integers (or an
#   infeasibility marker), so a warm search rebuilds its Phase-1 bound
#   vectors without mapping a single candidate;
# * ``tune-point``  — the (impl fingerprint, fitness dict) pair, keyed
#   additionally by the tune-fitness stage version and the evaluation
#   settings, so a warm search's batches skip ``run_sharded`` outright
#   instead of paying pool dispatch + unpickle for each cache hit.
#
# Bump on any change to what the entries contain.
_BOUNDS_SIDECAR_VERSION = "1"
_POINT_SIDECAR_VERSION = "1"


def _bounds_key(map_key: str) -> str:
    return fingerprint(("tune-bounds", _BOUNDS_SIDECAR_VERSION, map_key))


def _point_key(map_key: str, settings: Dict[str, Any]) -> str:
    return fingerprint((
        "tune-point", _POINT_SIDECAR_VERSION, map_key,
        STAGE_VERSIONS["tune-fitness"],
        (settings["num_cycles"], settings["seed"],
         settings["frequency_mhz"], settings["verify"]),
    ))


class _Structure:
    """One unique implementation: a dedupe group plus its exact bounds."""

    __slots__ = (
        "candidate", "impl_fingerprint", "group_size",
        "lb_power", "area", "delay_ns", "map_key",
    )

    def __init__(self, candidate, impl_fingerprint, group_size,
                 lb_power, area, delay_ns, map_key):
        self.candidate = candidate
        self.impl_fingerprint = impl_fingerprint
        self.group_size = group_size
        self.lb_power = lb_power
        self.area = area
        self.delay_ns = delay_ns
        self.map_key = map_key

    @property
    def bound(self) -> Tuple[float, float, float]:
        """(power floor, exact area, exact delay) — componentwise ≤ the
        true objective vector."""
        return (self.lb_power, self.area, self.delay_ns)


def _bound_pruned(structure: _Structure, archive: List[Tuple[float, ...]]) -> bool:
    """True when an evaluated point dominates the structure's bound.

    Sound because the true objectives are componentwise ≥ the bound:
    ``a ≤ bound ≤ truth`` everywhere with one strict coordinate against
    the bound implies the same strict coordinate against the truth, so
    the structure's true point is dominated and off the frontier.
    """
    return any(dominates(point, structure.bound) for point in archive)


def _resolve_target(name_or_fsm: Union[str, FSM]) -> Tuple[Tuple[str, Optional[str]], FSM, str]:
    """(cache-key form, parsed FSM, display name) for the target."""
    if isinstance(name_or_fsm, str):
        from repro.bench.suite import load_benchmark

        fsm = load_benchmark(name_or_fsm)
        return (name_or_fsm, None), fsm, name_or_fsm
    return (name_or_fsm.name, format_kiss(name_or_fsm)), name_or_fsm, name_or_fsm.name


def _eval_shard(item) -> Tuple[str, Dict[str, Any], int, int]:
    """Pool worker: evaluate one structure through the cached pipeline.

    Returns (impl fingerprint, fitness dict, tune-fitness cache hits,
    total stage cache hits).  Must stay module-level picklable.
    """
    config, cache_path = item
    outcome = build_tune_pipeline().run(config, cache=resolve_cache(cache_path))
    fitness = outcome.value("tune-fitness")
    fitness_hits = sum(
        1 for r in outcome.report.records
        if r.stage == "tune-fitness" and r.cache_hit
    )
    total_hits = sum(1 for r in outcome.report.records if r.cache_hit)
    impl_fp = next(
        r.fingerprint for r in outcome.report.records if r.stage == "tune-map"
    )
    return impl_fp, fitness, fitness_hits, total_hits


def tune_benchmark(
    name_or_fsm: Union[str, FSM],
    space: Optional[TuneSpace] = None,
    jobs: int = 1,
    cache: Union[None, bool, str, ArtifactCache] = None,
    num_cycles: int = DEFAULT_TUNE_CYCLES,
    seed: int = 2004,
    frequency_mhz: float = DEFAULT_TUNE_FREQUENCY_MHZ,
    verify: bool = True,
    prune: bool = True,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_retries: int = 2,
    mp_context: Optional[str] = "forkserver",
) -> TuneResult:
    """Search the mapper-configuration space of one benchmark.

    Returns the Pareto frontier over (power, area, delay) with the
    fixed-heuristic baseline evaluated alongside.  Deterministic: the
    same (machine, space, settings) produce a byte-identical
    :meth:`~repro.tune.frontier.TuneResult.canonical_json` at any
    ``jobs`` count, with or without a warm cache, and through
    worker-crash retries.  ``prune=False`` evaluates the whole deduped
    grid (the brute-force reference the equivalence tests compare
    against).
    """
    start = time.perf_counter()
    key_form, fsm, display = _resolve_target(name_or_fsm)
    if space is None:
        space = default_space(fsm)
    candidates = space.enumerate()

    settings = {
        "num_cycles": int(num_cycles),
        "seed": int(seed),
        "frequency_mhz": float(frequency_mhz),
        "verify": bool(verify),
    }

    resolved_cache = resolve_cache(cache)
    cache_path = str(resolved_cache.root) if resolved_cache is not None else False

    # Duty floor for clock-controlled candidates: a stopped cycle must
    # be a state hold, so the enable duty can never drop under one
    # minus the reference trajectory's self-loop fraction (small margin
    # for trace-boundary conventions).  One reference simulation of the
    # shared stimulus, shared by every candidate's bound.
    from repro.fsm.simulate import FsmSimulator, random_stimulus

    stimulus = random_stimulus(fsm.num_inputs, int(num_cycles), seed=int(seed))
    ref_states = FsmSimulator(fsm).run(stimulus).states
    self_loops = sum(1 for a, b in zip(ref_states, ref_states[1:]) if a == b)
    cc_duty_floor = max(
        0.0, 1.0 - self_loops / max(1, len(stimulus)) - 2.0 / max(1, num_cycles)
    )

    # ---- Phase 1: static mapping, dedupe, exact bounds (in-driver) ----
    # The driver computes each candidate's tune-map cache key itself
    # (same parse fingerprint + config slice the pipeline would hash),
    # which addresses the two sidecar entries: with a warm cache this
    # whole phase is key hashes and small reads — zero mappings.
    map_stage = build_tune_pipeline().stage("tune-map")
    parse_fp = fingerprint(fsm)
    structures: Dict[str, _Structure] = {}
    infeasible = 0
    bounds_hits = 0
    baseline = baseline_candidate()
    for candidate in [baseline] + candidates:
        map_key = map_stage.cache_key(
            {"parse": parse_fp},
            candidate.config_overrides(),
        )
        bounds: Optional[ImplBounds] = None
        if resolved_cache is not None:
            loaded = resolved_cache.get(_bounds_key(map_key))
            if loaded is not None:
                data = loaded[1]
                bounds_hits += 1
                if data.get("infeasible"):
                    infeasible += 1
                    continue
                bounds = ImplBounds.from_dict(data)
        if bounds is None:
            try:
                impl = map_fsm_to_rom(fsm, **candidate.mapper_kwargs())
            except (MappingError, FsmError):
                infeasible += 1
                if resolved_cache is not None:
                    marker = {"infeasible": True}
                    resolved_cache.put(
                        _bounds_key(map_key), fingerprint(marker), marker
                    )
                continue
            bounds = ImplBounds.of(impl, Artifact.of(impl).fingerprint)
            if resolved_cache is not None:
                data = bounds.as_dict()
                resolved_cache.put(
                    _bounds_key(map_key), fingerprint(data), data
                )
        impl_fp = bounds.impl_fingerprint
        known = structures.get(impl_fp)
        if known is not None:
            known.group_size += 1
            continue
        duty_floor = cc_duty_floor if candidate.clock_control else 1.0
        structures[impl_fp] = _Structure(
            candidate=candidate,
            impl_fingerprint=impl_fp,
            group_size=1,
            lb_power=bounds.power_floor(frequency_mhz, duty_floor=duty_floor),
            area=float(bounds.area),
            delay_ns=bounds.timing().critical_path_ns,
            map_key=map_key,
        )
    baseline_fp = None
    base_struct = None
    # The baseline was enumerated first, so its structure's candidate
    # IS the baseline candidate.
    for fp, s in structures.items():
        if s.candidate == baseline:
            baseline_fp = fp
            base_struct = s
            break
    assert base_struct is not None, "baseline mapping cannot be infeasible"

    # ---- Phase 2: batched evaluation with exact bound pruning ----------
    order = sorted(
        (s for fp, s in structures.items() if fp != baseline_fp),
        key=lambda s: (s.lb_power, s.impl_fingerprint),
    )

    def make_item(s: _Structure):
        config = tune_config(
            key_form, s.candidate.config_overrides(),
            num_cycles=settings["num_cycles"],
            seed=settings["seed"],
            frequency=settings["frequency_mhz"],
            verify=settings["verify"],
        )
        return (config, cache_path)

    evaluated: List[FrontierPoint] = []
    archive: List[Tuple[float, ...]] = []
    fitness_hits = 0
    stage_hits = 0
    stage_runs = 0
    pruned = 0

    def run_batch(batch: List[_Structure]) -> None:
        nonlocal fitness_hits, stage_hits, stage_runs
        # Sidecar memo first: a previously evaluated candidate's
        # (impl fingerprint, fitness) pair answers from one small read,
        # skipping pool dispatch entirely.  Misses evaluate through
        # run_sharded; points append in the batch's original order so
        # the evaluated sequence is identical hot or cold.
        scored: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        misses: List[_Structure] = []
        for s in batch:
            data = None
            if resolved_cache is not None:
                loaded = resolved_cache.get(
                    _point_key(s.map_key, settings)
                )
                if loaded is not None:
                    data = loaded[1]
            if data is not None:
                scored[s.impl_fingerprint] = (data["impl_fp"], data["fitness"])
                fitness_hits += 1
            else:
                misses.append(s)
        if misses:
            items = [make_item(s) for s in misses]
            results = run_sharded(
                _eval_shard, items, jobs=jobs, max_retries=max_retries,
                mp_context=mp_context,
            )
            for s, (impl_fp, fitness, f_hits, t_hits) in zip(misses, results):
                scored[s.impl_fingerprint] = (impl_fp, fitness)
                fitness_hits += f_hits
                stage_hits += t_hits
                stage_runs += 3
                if resolved_cache is not None:
                    data = {"impl_fp": impl_fp, "fitness": fitness}
                    resolved_cache.put(
                        _point_key(s.map_key, settings),
                        fingerprint(data), data,
                    )
        for s in batch:
            impl_fp, fitness = scored[s.impl_fingerprint]
            point = FrontierPoint(
                candidate=s.candidate,
                fitness=fitness,
                group_size=s.group_size,
                impl_fingerprint=impl_fp,
            )
            evaluated.append(point)
            archive.append(point.objectives)

    # Baseline first: it seeds the archive, so pruning starts working
    # from the very first batch.
    run_batch([base_struct])
    baseline_point = evaluated[0]

    # The IO term is exact and identical for every candidate (pad
    # toggles are a property of the verified-equivalent behaviour), so
    # the baseline's measured value joins every bound.  A constant
    # shift, so the (lb, fingerprint) visit order is unchanged.
    io_mw = float(baseline_point.fitness["components_mw"].get("io", 0.0))
    for s in structures.values():
        s.lb_power += io_mw

    pending = list(order)
    while pending:
        if prune:
            keep: List[_Structure] = []
            for s in pending:
                if _bound_pruned(s, archive):
                    pruned += 1
                else:
                    keep.append(s)
            pending = keep
        if not pending:
            break
        batch, pending = pending[:batch_size], pending[batch_size:]
        run_batch(batch)

    frontier = pareto_front(evaluated)
    wall = time.perf_counter() - start
    stats = {
        "candidates": len(candidates),
        "infeasible": infeasible,
        "structures": len(structures),
        "deduped": len(candidates) + 1 - infeasible - len(structures),
        "pruned": pruned,
        "evaluated": len(evaluated),
        "fitness_cache_hits": fitness_hits,
        "bounds_cache_hits": bounds_hits,
        "stage_cache_hits": stage_hits,
        "stage_runs": stage_runs,
        "wall_seconds": round(wall, 6),
        "candidates_per_sec": round(len(candidates) / wall, 3) if wall > 0 else 0.0,
        "jobs": max(1, jobs),
    }
    logger.info(kv(
        "tune_done", benchmark=display,
        candidates=len(candidates), structures=len(structures),
        pruned=pruned, evaluated=len(evaluated),
        frontier=len(frontier), seconds=round(wall, 3),
    ))
    return TuneResult(
        benchmark=display,
        frontier=frontier,
        baseline=baseline_point,
        settings=settings,
        space=space.as_dict(),
        stats=stats,
    )


def tune_many(
    benchmarks: Sequence[Union[str, FSM]],
    **kwargs,
) -> Dict[str, TuneResult]:
    """Tune several benchmarks (shared cache, insertion-ordered dict).

    Each search parallelises internally across ``jobs`` workers;
    benchmarks run in sequence so their candidate batches never
    interleave (keeping per-benchmark determinism trivial).
    """
    results: Dict[str, TuneResult] = {}
    for entry in benchmarks:
        result = tune_benchmark(entry, **kwargs)
        results[result.benchmark] = result
    return results


def replay_point(
    point: FrontierPoint,
    benchmark: Union[str, FSM],
    cache: Union[None, bool, str, ArtifactCache] = None,
    **settings,
) -> Dict[str, Any]:
    """Re-evaluate one frontier point; returns the fresh fitness dict.

    With the settings stored in the frontier artifact, the result is
    bit-identical to ``point.fitness`` (the replayability guarantee the
    determinism suite asserts).
    """
    key_form, _, _ = _resolve_target(benchmark)
    config = tune_config(
        key_form, point.candidate.config_overrides(),
        num_cycles=settings.get("num_cycles", DEFAULT_TUNE_CYCLES),
        seed=settings.get("seed", 2004),
        frequency=settings.get(
            "frequency_mhz", settings.get("frequency", DEFAULT_TUNE_FREQUENCY_MHZ)
        ),
        verify=settings.get("verify", True),
    )
    resolved = resolve_cache(cache)
    cache_path = str(resolved.root) if resolved is not None else False
    _, fitness, _, _ = _eval_shard((config, cache_path))
    return fitness
