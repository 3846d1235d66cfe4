"""The layers the traced run measures, and what each should move.

``FUNCTION_LAYERS`` names the program functions wrapped from outside
(see :mod:`spans`); ``COUNTERS`` names the counts read from what the
program already exports.  Which end-to-end metric each should move, on
which workload, is tabled in ``README.md``.  ``per_layer_metrics()`` is
the ``per_layer`` list of ``BENCHMARK.json``; a test keeps the two equal.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = [
    "COUNTERS",
    "END_TO_END",
    "FUNCTION_LAYERS",
    "STAGES",
    "per_layer_metrics",
]

# name, unit, better, bound (share of the parent's median).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cold_ms", "ms", "lower", 0.25),
    ("warm_p50_ms", "ms", "lower", 0.25),
]

# Pipeline stages: the paper's Fig. 6 flow, then the tuner's own two.
STAGES = (
    "parse", "complete-encode", "ff-synth", "rom-map", "rom-cc",
    "simulate", "activity", "power", "tune-map", "tune-fitness",
)

# Layer name -> targets ("module:function" or "module:Class.method").
# Every module binding of a function target is wrapped.
FUNCTION_LAYERS: List[Tuple[str, Tuple[str, ...]]] = [
    ("pipeline.run", ("repro.pipeline.pipeline:Pipeline.run",)),
    ("pipeline.fingerprint", ("repro.pipeline.artifact:fingerprint",)),
    ("logic.espresso", ("repro.logic.minimize:espresso",)),
    ("logic.sop_to_network", ("repro.logic.network:sop_to_network",)),
    ("logic.map_network", ("repro.logic.lutmap:map_network",)),
    ("synth.synthesize_ff", ("repro.synth.ff_synth:synthesize_ff",)),
    ("synth.simulate_ff_netlist", ("repro.synth.netsim:simulate_ff_netlist",)),
    ("synth.compile_mapping", ("repro.synth.codegen:compile_mapping",)),
    ("romfsm.map_fsm_to_rom", ("repro.romfsm.mapper:map_fsm_to_rom",)),
    ("romfsm.run", ("repro.romfsm.impl:RomFsmImplementation.run",)),
    ("romfsm.synthesize_clock_control",
     ("repro.romfsm.clock_control:synthesize_clock_control",)),
    ("power.extract_ff_activity", ("repro.power.activity:extract_ff_activity",)),
    ("power.extract_rom_activity", ("repro.power.activity:extract_rom_activity",)),
    ("power.estimate_ff_power", ("repro.power.estimator:estimate_ff_power",)),
    ("power.estimate_rom_power", ("repro.power.estimator:estimate_rom_power",)),
    ("fsm.parse_kiss", ("repro.fsm.kiss:parse_kiss",)),
    ("fsm.stimulus", ("repro.fsm.simulate:random_stimulus",
                      "repro.fsm.simulate:idle_biased_stimulus")),
    ("cache.get", ("repro.pipeline.cache:ArtifactCache.get",)),
    ("cache.put", ("repro.pipeline.cache:ArtifactCache.put",)),
    # Service parent side (the event loop); worker-side spans need
    # tracing inside the program.
    ("service.read_request", ("repro.service.http:read_request",)),
    ("service.parse_job", ("repro.service.jobs:parse_job",)),
    ("service.encode", ("repro.service.http:json_response",
                        "repro.service.http:Response.encode")),
]

# name, unit, better
COUNTERS: List[Tuple[str, str, str]] = [
    ("cache.hit_ratio", "ratio", "higher"),   # base: cache.get.calls
    ("cache.io_errors", "count", "lower"),
    ("cache.put.bytes", "B", "lower"),
    ("synth.compiles", "count", "lower"),
    ("synth.fallbacks", "count", "lower"),
    ("service.executor_rtt_s", "s", "lower"),
    ("service.coalesced", "count", "higher"),
    ("service.executions", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.worker_crashes", "count", "lower"),
    ("tune.candidates", "count", "lower"),
    ("tune.deduped", "count", "higher"),
    ("tune.pruned", "count", "higher"),
    ("tune.evaluated", "count", "lower"),
    ("tune.structures", "count", "lower"),
    ("tune.fitness_cache_hits", "count", "higher"),
    ("client.lateness_s.p50", "s", "lower"),
    ("client.lateness_s.max", "s", "lower"),
    ("residual_s", "s", "lower"),
    ("trace.overhead_cold", "ratio", "lower"),
    ("trace.overhead_warm", "ratio", "lower"),
]

def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every metric the traced run prints."""
    metrics: List[Tuple[str, str, str]] = []
    for stage in STAGES:
        metrics.append((f"pipeline.{stage}.s", "s", "lower"))
        metrics.append((f"pipeline.{stage}.hits", "count", "higher"))
    for name, _targets in FUNCTION_LAYERS:
        metrics.append((f"{name}.calls", "count", "lower"))
        metrics.append((f"{name}.s", "s", "lower"))
        metrics.append((f"{name}.self_s", "s", "lower"))
    metrics.extend(COUNTERS)
    return metrics
