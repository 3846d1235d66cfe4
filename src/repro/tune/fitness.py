"""Candidate fitness: the tuner's three-stage evaluation pipeline.

``parse`` → ``tune-map`` → ``tune-fitness``, all registered in
:data:`repro.pipeline.stages.STAGE_VERSIONS` and served by the same
content-addressed artifact cache as the Fig. 6 flow.  The ``parse``
stage is literally the evaluation flow's — one benchmark's FSM artifact
is shared between ``romfsm eval`` runs and every tuner candidate.

Fitness memoisation *is* the ``tune-fitness`` cache entry: its cache
key commits to the ``tune-map`` artifact fingerprint, so two candidates
that collapse onto the same implementation (e.g. ``aspect=None`` and
pinning the aspect the heuristic would have chosen anyway) share one
simulation.  The fitness value itself is a JSON-safe dict so frontier
artifacts round-trip bit-exactly through ``json``.

Objectives (all to be minimised):

* ``power_mw`` — total ROM-implementation power at the tuning frequency
  under the shared uniform stimulus (clock-controlled candidates profit
  from their machine's natural idle occupancy);
* ``area``     — LUT-equivalent cost, ``brams × BLOCK_LUT_EQUIV + luts``;
* ``delay_ns`` — critical path from the block's timing model.

:func:`power_lower_bound` computes the provable floor the search uses
to prune: the clock tree term is an exact function of the block count,
the block read term is bounded below by the cheaper of the
active/idle edge energies (enable duty is in [0, 1]), and the
interconnect/logic/IO buckets are nonnegative.  No simulated power can
come in under this floor, so discarding a candidate whose floor is
dominated never changes the frontier (proof sketch in
``docs/architecture.md`` §15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.arch.device import get_device
from repro.arch.memblock import VIRTEX2_BRAM
from repro.arch.timing import TimingReport
from repro.fsm.simulate import FsmSimulator, random_stimulus
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.stage import StageContext
from repro.pipeline.stages import make_stage, _stage_parse
from repro.power.activity import extract_rom_activity
from repro.power.estimator import estimate_rom_power
from repro.power.params import PowerParams, VIRTEX2_PARAMS
from repro.romfsm.impl import RomFsmImplementation
from repro.romfsm.mapper import map_fsm_to_rom

__all__ = [
    "BLOCK_LUT_EQUIV",
    "DEFAULT_TUNE_CYCLES",
    "DEFAULT_TUNE_FREQUENCY_MHZ",
    "ImplBounds",
    "area_cost",
    "build_tune_pipeline",
    "candidate_timing",
    "power_lower_bound",
    "tune_config",
]

# One embedded block costs this many LUT-equivalents in the area
# objective.  A tuner convention, not a paper number: it makes BRAMs and
# glue logic commensurable so "area" is a single scalar (a Virtex-II
# BlockRAM displaces roughly a 4×8-slice region's worth of logic).
BLOCK_LUT_EQUIV = 64

DEFAULT_TUNE_CYCLES = 512
DEFAULT_TUNE_FREQUENCY_MHZ = 100.0


def area_cost(impl: RomFsmImplementation) -> int:
    """LUT-equivalent area scalar (blocks weighted by BLOCK_LUT_EQUIV)."""
    return impl.num_brams * BLOCK_LUT_EQUIV + impl.num_luts


@dataclass(frozen=True)
class ImplBounds:
    """The slice of a mapped candidate the search's bounds need.

    A handful of integers — everything :func:`power_lower_bound`, the
    area objective, and the timing model consume.  Small enough to park
    in the artifact cache next to the heavyweight ``tune-map`` entry,
    so a warm search reconstructs its Phase-1 bounds without mapping
    (or even loading) a single implementation.
    """

    impl_fingerprint: str
    num_brams: int
    num_luts: int
    lane_addr_bits: int
    lane_data_bits: int
    mux_levels: int
    series_brams: int
    cc_depth: Optional[int]  # None = no clock control

    @classmethod
    def of(cls, impl: RomFsmImplementation, impl_fingerprint: str) -> "ImplBounds":
        return cls(
            impl_fingerprint=impl_fingerprint,
            num_brams=impl.num_brams,
            num_luts=impl.num_luts,
            lane_addr_bits=min(impl.layout.addr_bits, impl.config.addr_bits),
            lane_data_bits=-(-impl.layout.data_bits // impl.parallel_brams),
            mux_levels=impl.mux_levels,
            series_brams=impl.series_brams,
            cc_depth=(
                impl.clock_control.depth
                if impl.clock_control is not None else None
            ),
        )

    @property
    def area(self) -> int:
        return self.num_brams * BLOCK_LUT_EQUIV + self.num_luts

    def timing(self, params: PowerParams = VIRTEX2_PARAMS) -> TimingReport:
        timing = VIRTEX2_BRAM.timing_model(params.interconnect)
        report = timing.rom_implementation(
            mux_levels=self.mux_levels, series_brams=self.series_brams
        )
        if self.cc_depth is not None:
            report = timing.rom_with_clock_control(report, self.cc_depth)
        return report

    def power_floor(
        self,
        frequency_mhz: float = DEFAULT_TUNE_FREQUENCY_MHZ,
        params: PowerParams = VIRTEX2_PARAMS,
        duty_floor: float = 0.0,
        extra_mw: float = 0.0,
    ) -> float:
        """See :func:`power_lower_bound` (this is its implementation)."""
        per_edge = params.bram_edge_energy_pj(
            self.lane_addr_bits, self.lane_data_bits, True
        )
        idle_edge = params.bram_edge_energy_pj(
            self.lane_addr_bits, self.lane_data_bits, False
        )
        duty_floor = min(1.0, max(0.0, duty_floor))
        edge_floor = min(
            duty_floor * per_edge + (1.0 - duty_floor) * idle_edge,
            per_edge,
        )
        bram_floor = self.num_brams * edge_floor
        clock_cap = (
            params.c_clock_tree_base_pf
            + params.c_clock_tree_per_load_pf * self.num_brams
        )
        clock = params.power_mw(
            params.energy_pj(clock_cap, 2.0), frequency_mhz
        )
        return clock + params.power_mw(bram_floor, frequency_mhz) + extra_mw

    def as_dict(self) -> Dict[str, Any]:
        return {
            "impl_fingerprint": self.impl_fingerprint,
            "num_brams": self.num_brams,
            "num_luts": self.num_luts,
            "lane_addr_bits": self.lane_addr_bits,
            "lane_data_bits": self.lane_data_bits,
            "mux_levels": self.mux_levels,
            "series_brams": self.series_brams,
            "cc_depth": self.cc_depth,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ImplBounds":
        return cls(
            impl_fingerprint=str(data["impl_fingerprint"]),
            num_brams=int(data["num_brams"]),
            num_luts=int(data["num_luts"]),
            lane_addr_bits=int(data["lane_addr_bits"]),
            lane_data_bits=int(data["lane_data_bits"]),
            mux_levels=int(data["mux_levels"]),
            series_brams=int(data["series_brams"]),
            cc_depth=(
                None if data["cc_depth"] is None else int(data["cc_depth"])
            ),
        )


def candidate_timing(
    impl: RomFsmImplementation, params: PowerParams = VIRTEX2_PARAMS
) -> TimingReport:
    """Critical path of a mapped candidate."""
    return ImplBounds.of(impl, "").timing(params)


def power_lower_bound(
    impl: RomFsmImplementation,
    frequency_mhz: float = DEFAULT_TUNE_FREQUENCY_MHZ,
    params: PowerParams = VIRTEX2_PARAMS,
    duty_floor: float = 0.0,
    extra_mw: float = 0.0,
) -> float:
    """A provable floor (mW) under any simulated power of ``impl``.

    Exact term: clock tree (trunk + per-block leaf load, two edges per
    cycle) — a function of the block count alone.  Bounded term: block
    read energy at the cheapest enable duty in ``[duty_floor, 1]``.
    Without clock control the duty is exactly 1; with it a stopped cycle
    must be a state hold (the registers keep their values), so the duty
    can never drop under one minus the reference trajectory's self-loop
    fraction — the search passes that as ``duty_floor`` (with a small
    boundary margin).  The interconnect and logic buckets are sums of
    nonnegative energies, bounded below by zero; ``extra_mw`` adds any
    component the caller knows exactly (the IO term — pad toggles are a
    property of the verified-equivalent behaviour, not of the
    candidate).
    """
    return ImplBounds.of(impl, "").power_floor(
        frequency_mhz=frequency_mhz,
        params=params,
        duty_floor=duty_floor,
        extra_mw=extra_mw,
    )


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _stage_tune_map(ctx: StageContext) -> RomFsmImplementation:
    """Map one fingerprinted tuner candidate (clock control included —
    unlike the eval flow's rom-map/rom-cc split, clock control is a
    candidate knob here, part of this stage's cache key)."""
    fsm = ctx.value("parse")
    return map_fsm_to_rom(
        fsm,
        clock_control=bool(ctx.cfg("clock_control", False)),
        moore_outputs=ctx.cfg("moore_outputs") or "auto",
        encoding=ctx.cfg("rom_encoding"),
        force_compaction=bool(ctx.cfg("force_compaction", False)),
        aspect=ctx.cfg("aspect"),
        k=ctx.cfg("lut_k", 4),
    )


def _stage_tune_fitness(ctx: StageContext) -> Dict[str, Any]:
    """Score one mapped candidate on the shared stimulus.

    Returns a JSON-safe dict — the frontier artifact embeds it verbatim
    and replay compares float-exactly after a json round-trip.
    """
    fsm = ctx.value("parse")
    impl: RomFsmImplementation = ctx.value("tune-map")
    num_cycles = ctx.cfg("num_cycles", DEFAULT_TUNE_CYCLES)
    seed = ctx.cfg("seed", 2004)
    frequency = float(ctx.cfg("frequency", DEFAULT_TUNE_FREQUENCY_MHZ))
    params = ctx.cfg("params") or VIRTEX2_PARAMS
    device = ctx.cfg("device") or get_device()

    stimulus = random_stimulus(fsm.num_inputs, num_cycles, seed=seed)
    trace = impl.run(stimulus)
    if ctx.cfg("verify", True):
        reference = FsmSimulator(fsm).run(stimulus)
        if trace.output_stream != reference.outputs:
            raise AssertionError(
                f"{fsm.name}: tuner candidate diverged from the reference "
                f"FSM on the shared stimulus"
            )

    activity = extract_rom_activity(impl, trace)
    power = estimate_rom_power(impl, activity, frequency, device, params)
    timing = candidate_timing(impl, params)
    return {
        "power_mw": power.total_mw,
        "components_mw": dict(sorted(power.components_mw.items())),
        "brams": impl.num_brams,
        "luts": impl.num_luts,
        "area": area_cost(impl),
        "delay_ns": timing.critical_path_ns,
        "fmax_mhz": timing.fmax_mhz,
        "enable_duty": activity.enable_duty,
        "frequency_mhz": frequency,
    }


def build_tune_pipeline() -> Pipeline:
    """parse → tune-map → tune-fitness, all cache-served."""
    return Pipeline([
        make_stage("parse", _stage_parse, (),
                   ("benchmark", "kiss", "name", "states", "reset")),
        make_stage("tune-map", _stage_tune_map, ("parse",),
                   ("moore_outputs", "rom_encoding",
                    "force_compaction", "aspect", "lut_k", "clock_control")),
        make_stage("tune-fitness", _stage_tune_fitness,
                   ("parse", "tune-map"),
                   ("num_cycles", "seed", "frequency", "device", "params",
                    "verify")),
    ])


def tune_config(
    name_or_kiss: Tuple[str, Optional[str]],
    candidate_overrides: Dict[str, Any],
    num_cycles: int = DEFAULT_TUNE_CYCLES,
    seed: int = 2004,
    frequency: float = DEFAULT_TUNE_FREQUENCY_MHZ,
    verify: bool = True,
    params: Optional[PowerParams] = None,
    device=None,
) -> Dict[str, Any]:
    """Assemble the pipeline config for one candidate evaluation.

    ``name_or_kiss`` is ``(benchmark_name, None)`` for a suite machine
    or ``(fsm_name, kiss_text)`` for an ad-hoc one — mirroring
    ``evaluation_config``'s cache-key conventions so the parse artifact
    is shared with the eval flow.
    """
    name, kiss = name_or_kiss
    config: Dict[str, Any] = {
        "num_cycles": int(num_cycles),
        "seed": int(seed),
        "frequency": float(frequency),
        "verify": bool(verify),
        "params": params,
        "device": device,
    }
    if kiss is None:
        config["benchmark"] = name
    else:
        config["kiss"] = kiss
        config["name"] = name
    config.update(candidate_overrides)
    return config
