"""Candidate fitness: score one mapped candidate, bound the rest.

:func:`score` simulates a mapped candidate on the search's shared
stimulus and returns its objectives as a JSON-safe dict, so frontier
artifacts round-trip bit-exactly through ``json``.  The search caches
that dict in its ``tune-point`` sidecar (:mod:`repro.tune.search`); this
module keeps no cache of its own.

Objectives (all to be minimised):

* ``power_mw`` — total ROM-implementation power at the tuning frequency
  under the shared uniform stimulus (clock-controlled candidates profit
  from their machine's natural idle occupancy);
* ``area``     — LUT-equivalent cost, ``brams × BLOCK_LUT_EQUIV + luts``;
* ``delay_ns`` — critical path from the block's timing model.

:meth:`ImplBounds.power_floor` computes the provable floor the search
uses to prune: the clock tree term is an exact function of the block
count, the block read term is bounded below by the cheaper of the
active/idle edge energies (enable duty is in [0, 1]), and the
interconnect/logic/IO buckets are nonnegative.  No simulated power can
come in under this floor, so discarding a candidate whose floor is
dominated never changes the frontier (proof sketch in
``docs/architecture.md`` §15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.arch.memblock import VIRTEX2_BRAM
from repro.arch.timing import TimingReport
from repro.fsm.machine import FSM
from repro.fsm.simulate import random_stimulus
from repro.power.activity import extract_rom_activity
from repro.power.estimator import estimate_rom_power
from repro.power.params import PowerParams, VIRTEX2_PARAMS
from repro.romfsm.impl import RomFsmImplementation

__all__ = [
    "BLOCK_LUT_EQUIV",
    "DEFAULT_TUNE_CYCLES",
    "DEFAULT_TUNE_FREQUENCY_MHZ",
    "ImplBounds",
    "area_cost",
    "score",
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

    A handful of integers — everything the power floor, the area
    objective, and the timing model consume.  Small enough to park in
    the artifact cache as the search's ``tune-bounds`` sidecar, so a
    warm search reconstructs its Phase-1 bounds without mapping a
    single implementation.
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
        """A provable floor (mW) under any simulated power of the
        implementation.

        Exact term: clock tree (trunk + per-block leaf load, two edges
        per cycle) — a function of the block count alone.  Bounded term:
        block read energy at the cheapest enable duty in
        ``[duty_floor, 1]``.  Without clock control the duty is exactly
        1; with it a stopped cycle must be a state hold (the registers
        keep their values), so the duty can never drop under one minus
        the reference trajectory's self-loop fraction — the search
        passes that as ``duty_floor`` (with a small boundary margin).
        The interconnect and logic buckets are sums of nonnegative
        energies, bounded below by zero; ``extra_mw`` adds any component
        the caller knows exactly (the IO term — pad toggles are a
        property of the verified-equivalent behaviour, not of the
        candidate).
        """
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


def score(
    fsm: FSM, impl: RomFsmImplementation, settings: Dict[str, Any]
) -> Dict[str, Any]:
    """Score one mapped candidate on the shared stimulus.

    ``settings`` holds a search's ``num_cycles``, ``seed``,
    ``frequency_mhz`` and ``verify``.  Returns a JSON-safe dict — the
    frontier artifact embeds it verbatim and replay compares
    float-exactly after a json round-trip.  The run verifies itself
    (ROM words, enable logic and external Moore output LUTs), so a
    candidate that disagrees with its machine raises
    :func:`~repro.fsm.simulate.divergence` whatever ``verify`` says;
    ``verify`` stays in the settings, and so in the artifact and the
    sidecar keys, only to keep those stable.
    """
    frequency = float(settings["frequency_mhz"])
    stimulus = random_stimulus(
        fsm.num_inputs, int(settings["num_cycles"]), seed=int(settings["seed"])
    )
    trace = impl.run(stimulus)
    activity = extract_rom_activity(impl, trace)
    power = estimate_rom_power(impl, activity, frequency)
    timing = ImplBounds.of(impl, "").timing()
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
