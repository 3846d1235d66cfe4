"""Design-level mapping: many FSMs, one device, limited memory blocks.

The paper's motivation (§1) is design-level: "Since different designs
have varying memory requirements some embedded memory arrays may not be
utilized in logic-intensive designs.  These unutilized memory arrays
can be used to implement control units and FSMs, which will unburden
the routing resources and reduce power consumption of a design."

:class:`FsmDesign` models that situation: a set of control FSMs on one
device with a budget of *spare* block RAMs (whatever the datapath did
not consume).  :meth:`FsmDesign.implement` evaluates both
implementations for every machine and allocates the spare blocks to the
FSMs where the memory mapping saves the most power, falling back to the
FF implementation when blocks run out (a greedy knapsack by saving per
block, which is optimal here because almost every mapping costs one
block).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.arch.device import Device, Utilization, get_device
from repro.fsm.kiss import format_kiss
from repro.fsm.machine import FSM
from repro.fsm.simulate import idle_biased_stimulus, random_stimulus
from repro.pipeline.cache import ArtifactCache, resolve_cache
from repro.pipeline.driver import RunManifest, run_sharded
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.stage import StageContext
from repro.pipeline.stages import make_stage
from repro.power.activity import extract_ff_activity, extract_rom_activity
from repro.power.estimator import estimate_ff_power, estimate_rom_power
from repro.power.params import PowerParams, VIRTEX2_PARAMS
from repro.romfsm.mapper import MappingError, map_fsm_to_rom
from repro.synth.netsim import simulate_ff_netlist

__all__ = ["FsmChoice", "DesignReport", "FsmDesign", "build_design_pipeline"]


@dataclass
class FsmChoice:
    """The selected implementation for one FSM in the design."""

    name: str
    kind: str                     # "ff" | "rom" | "rom+cc"
    utilization: Utilization
    power_mw: float
    ff_power_mw: float            # the baseline, for the saving column
    brams: int

    @property
    def saving_percent(self) -> float:
        if self.ff_power_mw == 0:
            return 0.0
        return 100.0 * (1.0 - self.power_mw / self.ff_power_mw)


@dataclass
class DesignReport:
    """Outcome of mapping the whole design."""

    device: Device
    choices: List[FsmChoice]
    spare_brams: int
    # Observability of the candidate-evaluation campaign (stage timings,
    # cache hits/misses, worker count); None for hand-built reports.
    manifest: Optional[RunManifest] = None

    @property
    def total_power_mw(self) -> float:
        return sum(c.power_mw for c in self.choices)

    @property
    def baseline_power_mw(self) -> float:
        return sum(c.ff_power_mw for c in self.choices)

    @property
    def total_utilization(self) -> Utilization:
        total = Utilization()
        for choice in self.choices:
            total = total + choice.utilization
        return total

    @property
    def brams_used(self) -> int:
        return sum(c.brams for c in self.choices)

    @property
    def saving_percent(self) -> float:
        base = self.baseline_power_mw
        if base == 0:
            return 0.0
        return 100.0 * (1.0 - self.total_power_mw / base)

    def fits(self) -> bool:
        util = self.total_utilization
        return (
            util.slices <= self.device.slices
            and self.brams_used <= self.spare_brams
        )


class FsmDesign:
    """A collection of control FSMs to place on one device."""

    def __init__(
        self,
        device: Optional[Device] = None,
        spare_brams: Optional[int] = None,
        params: PowerParams = VIRTEX2_PARAMS,
    ):
        self.device = device or get_device()
        self.spare_brams = (
            spare_brams if spare_brams is not None else self.device.brams
        )
        self.params = params
        self._fsms: List[Tuple[FSM, str, float]] = []

    def add(
        self, fsm: FSM, policy: str = "auto", idle_fraction: float = 0.0
    ) -> None:
        """Register a machine.

        ``policy``: ``"auto"`` (let the allocator decide), ``"ff"``,
        ``"rom"`` or ``"rom+cc"`` (force).  ``idle_fraction`` describes
        the machine's expected idle occupancy; above ~0.2 the allocator
        also considers the clock-controlled variant.
        """
        if policy not in ("auto", "ff", "rom", "rom+cc"):
            raise ValueError(f"unknown policy {policy!r}")
        fsm.validate()
        self._fsms.append((fsm, policy, idle_fraction))

    def __len__(self) -> int:
        return len(self._fsms)

    # ------------------------------------------------------------------

    def implement(
        self,
        frequency_mhz: float = 100.0,
        num_cycles: int = 1000,
        seed: int = 2004,
        jobs: int = 1,
        cache: Union[None, bool, str, ArtifactCache] = None,
    ) -> DesignReport:
        """Evaluate every machine and allocate the spare memory blocks.

        ``jobs`` shards the independent per-machine candidate
        evaluations across worker processes; ``cache`` serves repeated
        evaluations (and the ``ff-synth`` artifacts shared with
        :func:`repro.flows.flow.evaluate_benchmark`) from the
        content-addressed artifact store.
        """
        resolved = resolve_cache(cache)
        # False (not None) so workers do not fall back to REPRO_CACHE_DIR.
        cache_path = str(resolved.root) if resolved is not None else False
        items = [
            (
                fsm, idle_fraction, frequency_mhz, num_cycles, seed,
                self.device, self.params, cache_path,
            )
            for fsm, _policy, idle_fraction in self._fsms
        ]
        start = time.perf_counter()
        shards = run_sharded(_design_shard, items, jobs=jobs)
        manifest = RunManifest(jobs=max(1, jobs))
        evaluated = []
        for (fsm, policy, _idle), (candidates, report) in zip(self._fsms, shards):
            manifest.add_report(report)
            evaluated.append((fsm, policy, candidates))
        manifest.wall_seconds = time.perf_counter() - start

        choices: List[FsmChoice] = []
        budget = self.spare_brams

        # Forced policies claim their resources first.
        pending: List[Tuple[FSM, Dict]] = []
        for fsm, policy, candidates in evaluated:
            ff_mw = candidates["ff"][0]
            if policy == "ff":
                mw, util, brams = candidates["ff"]
                choices.append(FsmChoice(fsm.name, "ff", util, mw, ff_mw, 0))
            elif policy in ("rom", "rom+cc"):
                if policy not in candidates:
                    raise MappingError(
                        f"{fsm.name}: forced policy {policy!r} is infeasible"
                    )
                mw, util, brams = candidates[policy]
                if brams > budget:
                    raise MappingError(
                        f"{fsm.name}: {brams} block(s) needed, "
                        f"{budget} spare"
                    )
                budget -= brams
                choices.append(
                    FsmChoice(fsm.name, policy, util, mw, ff_mw, brams)
                )
            else:
                pending.append((fsm, candidates))

        # Auto machines: greedy by power saved per memory block.
        ranked = []
        for fsm, candidates in pending:
            ff_mw, ff_util, _ = candidates["ff"]
            best_kind, best = "ff", candidates["ff"]
            for kind in ("rom+cc", "rom"):
                if kind in candidates and candidates[kind][0] < best[0]:
                    best_kind, best = kind, candidates[kind]
            gain = ff_mw - best[0]
            per_block = gain / max(best[2], 1)
            ranked.append((per_block, fsm, candidates, best_kind))
        ranked.sort(key=lambda item: item[0], reverse=True)

        for per_block, fsm, candidates, best_kind in ranked:
            ff_mw, ff_util, _ = candidates["ff"]
            if best_kind != "ff" and candidates[best_kind][2] <= budget \
                    and candidates[best_kind][0] < ff_mw:
                mw, util, brams = candidates[best_kind]
                budget -= brams
                choices.append(
                    FsmChoice(fsm.name, best_kind, util, mw, ff_mw, brams)
                )
            else:
                choices.append(
                    FsmChoice(fsm.name, "ff", ff_util, ff_mw, ff_mw, 0)
                )

        return DesignReport(
            device=self.device,
            choices=choices,
            spare_brams=self.spare_brams,
            manifest=manifest,
        )


# ---------------------------------------------------------------------------
# Candidate evaluation as a pipeline
# ---------------------------------------------------------------------------


def _stage_design_candidates(
    ctx: StageContext,
) -> Dict[str, Tuple[float, Utilization, int]]:
    """Candidate implementations: kind -> (power, utilization, brams).

    Unlike the paper-table flow, all candidates share one stimulus (the
    machine's expected workload): idle-biased when the design declares
    idle occupancy, uniform random otherwise.
    """
    fsm: FSM = ctx.value("parse")
    ff = ctx.value("ff-synth")
    idle_fraction = ctx.cfg("idle_fraction", 0.0)
    frequency_mhz = ctx.cfg("frequency", 100.0)
    num_cycles = ctx.cfg("num_cycles", 1000)
    seed = ctx.cfg("seed", 2004)
    device = ctx.cfg("device")
    params = ctx.cfg("params")

    if idle_fraction > 0:
        stimulus = idle_biased_stimulus(fsm, num_cycles, idle_fraction, seed=seed)
    else:
        stimulus = random_stimulus(fsm.num_inputs, num_cycles, seed=seed)

    candidates: Dict[str, Tuple[float, Utilization, int]] = {}
    ff_power = estimate_ff_power(
        ff, extract_ff_activity(ff, simulate_ff_netlist(ff, stimulus)),
        frequency_mhz, device, params,
    )
    candidates["ff"] = (ff_power.total_mw, ff.utilization, 0)

    try:
        rom = map_fsm_to_rom(fsm)
        rom_power = estimate_rom_power(
            rom, extract_rom_activity(rom, rom.run(stimulus)),
            frequency_mhz, device, params,
        )
        candidates["rom"] = (rom_power.total_mw, rom.utilization, rom.num_brams)
        if idle_fraction >= 0.2:
            cc = map_fsm_to_rom(fsm, clock_control=True)
            cc_power = estimate_rom_power(
                cc, extract_rom_activity(cc, cc.run(stimulus)),
                frequency_mhz, device, params,
            )
            candidates["rom+cc"] = (
                cc_power.total_mw, cc.utilization, cc.num_brams
            )
    except MappingError:
        pass  # machine too wide for the memory approach: FF only
    return candidates


def build_design_pipeline() -> Pipeline:
    """parse → complete-encode → ff-synth → design-candidates.

    The first three stages are the same registered stages as the paper
    flow, so a design evaluation and a benchmark evaluation of the same
    machine share their synthesis artifacts in the cache.  ROM mapping
    happens inside ``design-candidates`` because its feasibility
    (``MappingError`` → FF-only) is part of this stage's result.
    """
    from repro.pipeline.stages import (
        _stage_complete_encode,
        _stage_ff_synth,
        _stage_parse,
    )

    return Pipeline([
        make_stage("parse", _stage_parse, (),
                   ("benchmark", "kiss", "name", "states", "reset")),
        make_stage("complete-encode", _stage_complete_encode,
                   ("parse",), ("encoding",)),
        make_stage("ff-synth", _stage_ff_synth,
                   ("parse", "complete-encode"), ("encoding", "lut_k")),
        make_stage("design-candidates", _stage_design_candidates,
                   ("parse", "ff-synth"),
                   ("frequency", "num_cycles", "seed", "idle_fraction",
                    "device", "params")),
    ])


def _design_shard(item) -> Tuple[Dict[str, Tuple[float, Utilization, int]], Any]:
    """Top-level worker for :func:`run_sharded` (must be picklable)."""
    (fsm, idle_fraction, frequency_mhz, num_cycles, seed,
     device, params, cache_path) = item
    config: Dict[str, Any] = {
        "fsm": fsm,
        "kiss": format_kiss(fsm),
        "name": fsm.name,
        "states": tuple(fsm.states),
        "reset": fsm.reset_state,
        "encoding": "binary",
        "idle_fraction": idle_fraction,
        "frequency": float(frequency_mhz),
        "num_cycles": num_cycles,
        "seed": seed,
        "device": device,
        "params": params,
    }
    outcome = build_design_pipeline().run(config, cache=resolve_cache(cache_path))
    return outcome.value("design-candidates"), outcome.report
