"""The deterministic multi-objective search over mapper configurations.

Wall-clock scales with the *frontier*, not the grid, through three
mechanisms applied in order:

1. **Structural dedupe.** Every candidate is planned
   (:func:`~repro.romfsm.mapper.plan_rom_mapping`: the Fig. 5
   decisions, no contents) in the driver, reusing one parsed FSM.
   Candidates whose plans share a key share one implementation, which
   is built and fingerprinted once.  Candidates are grouped by that
   implementation fingerprint: candidates that collapse onto the same
   implementation — pinning the aspect the heuristic would pick anyway,
   forcing a compaction the policy already took — share one
   evaluation.  The enumeration-first candidate represents the group.
2. **Exact bound pruning.** Area and delay of a mapped candidate are
   static; power has a provable floor
   (:meth:`~repro.tune.fitness.ImplBounds.power_floor`).  Structures
   whose (floor, area, delay) vector is dominated by an
   already-evaluated point can never reach the frontier and are
   discarded unevaluated.  Structures are visited in ascending
   (floor, fingerprint) order so cheap likely-winners evaluate first
   and the archive prunes aggressively.
3. **Sidecar memoisation.** Each candidate's bounds and fitness are
   parked in the artifact cache as two small entries, so a repeated
   search — a replay, a widened grid, a warm benchmark round — maps
   and simulates nothing.

Evaluation batches dispatch onto :func:`repro.pipeline.driver.
run_sharded` (forkserver start method, worker-crash retry); each
worker maps its candidate and scores it
(:func:`repro.tune.fitness.score`).  The batch size is fixed so the
evaluated set — not just the frontier — is identical at any ``jobs``
count.  Pruning is *exact* (never changes the frontier versus brute
force): see ``docs/architecture.md`` §15 for the dominance argument.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.fsm.machine import FSM, FsmError
from repro.fsm.simulate import FsmSimulator, random_stimulus
from repro.logutil import get_logger, kv
from repro.pipeline.artifact import fingerprint
from repro.pipeline.cache import ArtifactCache, resolve_cache
from repro.pipeline.driver import run_sharded
from repro.pipeline.stages import STAGE_VERSIONS
from repro.romfsm.mapper import (
    MappingError,
    build_rom_mapping,
    map_fsm_to_rom,
    plan_rom_mapping,
)
from repro.tune.fitness import (
    DEFAULT_TUNE_CYCLES,
    DEFAULT_TUNE_FREQUENCY_MHZ,
    ImplBounds,
    score,
)
from repro.tune.frontier import (
    FrontierPoint,
    TuneResult,
    dominates,
    pareto_front,
)
from repro.tune.space import (
    TuneCandidate,
    TuneSpace,
    baseline_candidate,
    default_space,
)

__all__ = ["tune_benchmark", "replay_point", "BATCH_SIZE"]

logger = get_logger("tune.search")

# Structures per run_sharded dispatch.  Fixed (not jobs-derived) so the
# evaluated/pruned split is identical at any process count — part of
# the determinism contract, not just a scheduling knob.
BATCH_SIZE = 8
# Retry rounds after a worker crash, and the pool's start method
# (forkserver: workers never inherit a dirty heap).
_MAX_RETRIES = 2
_MP_CONTEXT = "forkserver"

# The search's only cache: two small sidecar entries per candidate,
# both keyed by the candidate, the machine's fingerprint and the
# rom-map stage version (a mapper change bumps that one version for
# the eval flow and the tuner alike):
#
# * ``tune-bounds`` — the :class:`ImplBounds` integers (or an
#   infeasibility marker), so a warm search rebuilds its Phase-1 bound
#   vectors without mapping a single candidate;
# * ``tune-point``  — the fitness dict, keyed additionally by the
#   evaluation settings, so a warm search's batches skip
#   ``run_sharded`` outright.
#
# Bump a kind's version on any change to what its entries contain or
# how a candidate is scored.
_SIDECAR_VERSIONS = {"tune-bounds": "2", "tune-point": "2"}


def _sidecar_key(kind: str, fsm_fp: str, candidate: TuneCandidate,
                 *extra: Any) -> str:
    # Canonical JSON, hashed once: the fingerprint walker hashes every
    # field of a dict separately, which a warm search would pay per
    # candidate.
    parts = [kind, _SIDECAR_VERSIONS[kind], STAGE_VERSIONS["rom-map"],
             fsm_fp, candidate.as_dict(), *extra]
    encoded = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _cache_get(cache: Optional[ArtifactCache], key: str) -> Optional[Any]:
    art = cache.get(key) if cache is not None else None
    return None if art is None else art.value


def _cache_put(cache: Optional[ArtifactCache], key: str, value: Any) -> None:
    if cache is not None:
        cache.put(key, fingerprint(value), value)


class _Structure:
    """One unique implementation: a dedupe group plus its exact bounds."""

    __slots__ = (
        "candidate", "impl_fingerprint", "group_size",
        "lb_power", "area", "delay_ns",
    )

    def __init__(self, candidate, impl_fingerprint, group_size,
                 lb_power, area, delay_ns):
        self.candidate = candidate
        self.impl_fingerprint = impl_fingerprint
        self.group_size = group_size
        self.lb_power = lb_power
        self.area = area
        self.delay_ns = delay_ns

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


def _resolve_target(name_or_fsm: Union[str, FSM]) -> Tuple[FSM, str]:
    """(parsed FSM, display name) for the target."""
    if isinstance(name_or_fsm, str):
        from repro.bench.suite import load_benchmark

        return load_benchmark(name_or_fsm), name_or_fsm
    return name_or_fsm, name_or_fsm.name


def _cc_duty_floor(fsm: FSM, num_cycles: int, seed: int) -> float:
    """Duty floor for clock-controlled candidates.

    A stopped cycle must be a state hold, so the enable duty can never
    drop under one minus the reference trajectory's self-loop fraction
    (small margin for trace-boundary conventions).  One reference
    simulation of the shared stimulus serves every candidate's bound;
    it is kept as a machine fact, so a warm re-search simulates nothing.
    """

    def compute(machine: FSM) -> float:
        stimulus = random_stimulus(machine.num_inputs, num_cycles, seed=seed)
        ref_states = FsmSimulator(machine).run(stimulus).states
        self_loops = sum(1 for a, b in zip(ref_states, ref_states[1:]) if a == b)
        return max(
            0.0, 1.0 - self_loops / max(1, num_cycles) - 2.0 / max(1, num_cycles)
        )

    return fsm.fact(f"cc_duty_floor/{num_cycles}/{seed}", compute)


def _evaluate(item: Tuple[FSM, TuneCandidate, Dict[str, Any]]) -> Dict[str, Any]:
    """Pool worker: map one candidate and score it.  Module-level so it
    pickles."""
    fsm, candidate, settings = item
    impl = map_fsm_to_rom(fsm, **candidate.mapper_kwargs())
    return score(fsm, impl, settings)


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
    fsm, display = _resolve_target(name_or_fsm)
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

    cc_duty_floor = _cc_duty_floor(fsm, int(num_cycles), int(seed))

    # ---- Phase 1: static mapping, dedupe, exact bounds (in-driver) ----
    # With a warm cache this whole phase is key hashes and small
    # tune-bounds reads — zero mappings.
    fsm_fp = fingerprint(fsm)
    structures: Dict[str, _Structure] = {}
    # Bounds of every implementation built so far, by plan key: equal
    # keys build equal implementations, so each is built and
    # fingerprinted once.
    built: Dict[Tuple, ImplBounds] = {}
    infeasible = 0
    bounds_hits = 0
    baseline = baseline_candidate()
    for candidate in [baseline] + candidates:
        bounds_key = _sidecar_key("tune-bounds", fsm_fp, candidate)
        data = _cache_get(resolved_cache, bounds_key)
        if data is not None:
            bounds_hits += 1
            if data.get("infeasible"):
                infeasible += 1
                continue
            bounds = ImplBounds.from_dict(data)
        else:
            try:
                plan = plan_rom_mapping(fsm, **candidate.mapper_kwargs())
            except (MappingError, FsmError):
                infeasible += 1
                _cache_put(resolved_cache, bounds_key, {"infeasible": True})
                continue
            bounds = built.get(plan.key)
            if bounds is None:
                impl = build_rom_mapping(fsm, plan)
                bounds = ImplBounds.of(impl, fingerprint(impl))
                built[plan.key] = bounds
            _cache_put(resolved_cache, bounds_key, bounds.as_dict())
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
        )
    # The baseline was enumerated first, so its structure's candidate
    # IS the baseline candidate.
    base_struct = next(
        (s for s in structures.values() if s.candidate == baseline), None
    )
    assert base_struct is not None, "baseline mapping cannot be infeasible"

    # ---- Phase 2: batched evaluation with exact bound pruning ----------
    order = sorted(
        (s for s in structures.values() if s is not base_struct),
        key=lambda s: (s.lb_power, s.impl_fingerprint),
    )

    evaluated: List[FrontierPoint] = []
    archive: List[Tuple[float, ...]] = []
    fitness_hits = 0
    pruned = 0

    def run_batch(batch: List[_Structure]) -> None:
        nonlocal fitness_hits
        # Sidecar memo first: a previously evaluated candidate's fitness
        # answers from one small read, skipping pool dispatch entirely.
        # Misses map and score through run_sharded; points append in the
        # batch's original order so the evaluated sequence is identical
        # hot or cold.
        keys = [
            _sidecar_key("tune-point", fsm_fp, s.candidate, settings)
            for s in batch
        ]
        scored = [_cache_get(resolved_cache, key) for key in keys]
        fitness_hits += sum(1 for fitness in scored if fitness is not None)
        misses = [i for i, fitness in enumerate(scored) if fitness is None]
        if misses:
            results = run_sharded(
                _evaluate,
                [(fsm, batch[i].candidate, settings) for i in misses],
                jobs=jobs, max_retries=_MAX_RETRIES, mp_context=_MP_CONTEXT,
            )
            for i, fitness in zip(misses, results):
                scored[i] = fitness
                _cache_put(resolved_cache, keys[i], fitness)
        for s, fitness in zip(batch, scored):
            point = FrontierPoint(
                candidate=s.candidate,
                fitness=fitness,
                group_size=s.group_size,
                impl_fingerprint=s.impl_fingerprint,
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

    pending = order
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
        batch, pending = pending[:BATCH_SIZE], pending[BATCH_SIZE:]
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


def replay_point(
    point: FrontierPoint,
    benchmark: Union[str, FSM],
    **settings,
) -> Dict[str, Any]:
    """Re-map and re-score one frontier point; returns the fresh fitness
    dict.

    ``settings`` are a search's evaluation settings (``num_cycles``,
    ``seed``, ``frequency_mhz``, ``verify``; defaults as in
    :func:`tune_benchmark`).  With the settings stored in the frontier
    artifact, the result is bit-identical to ``point.fitness`` (the
    replayability guarantee the determinism suite asserts).
    """
    fsm, _ = _resolve_target(benchmark)
    settings = {
        "num_cycles": DEFAULT_TUNE_CYCLES,
        "seed": 2004,
        "frequency_mhz": DEFAULT_TUNE_FREQUENCY_MHZ,
        "verify": True,
        **settings,
    }
    return _evaluate((fsm, point.candidate, settings))
