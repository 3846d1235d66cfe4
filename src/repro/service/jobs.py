"""Request validation, canonical job keys, and pipeline execution.

A *job* is one validated ``POST /v1/evaluate`` request.  Its ``key`` is the
content fingerprint (:func:`repro.pipeline.artifact.fingerprint`) of the
exact pipeline configuration the request resolves to — the same
canonical hashing that keys the artifact cache — so two requests that
would run an identical pipeline coalesce onto one execution regardless
of field order or number formatting.  (A named benchmark and inline
KISS2 text of the same machine get distinct job keys, but still share
every downstream artifact-cache entry because the parse-stage
fingerprints coincide.)

:func:`run_job` is the synchronous bridge the server hands to its
executor; it returns ``(payload, records)`` where ``payload`` is a
deterministic JSON-ready result (byte-identical to what the direct
:func:`~repro.flows.flow.evaluate_benchmark` path would describe) and
``records`` are the pipeline stage records for the run manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.suite import BENCHMARK_SPECS
from repro.flows.flow import (
    PAPER_FREQUENCIES_MHZ,
    EvaluationResult,
    evaluate_benchmark_detailed,
    evaluation_config,
)
from repro.fsm.kiss import parse_kiss
from repro.fsm.machine import FsmError
from repro.pipeline.artifact import fingerprint

__all__ = [
    "Job",
    "JobError",
    "evaluate_payload",
    "parse_job",
    "run_job",
]

MAX_CYCLES = 200_000
MAX_FREQUENCIES = 16

_EVALUATE_FIELDS = {
    "kind", "benchmark", "kiss", "name", "frequencies_mhz", "num_cycles",
    "idle_fraction", "seed", "encoding", "with_clock_control",
}
_ENCODINGS = ("binary", "gray", "one-hot", "johnson")


class JobError(ValueError):
    """A request that cannot become a job; ``reason`` is a stable slug."""

    def __init__(self, message: str, reason: str = "invalid"):
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        # Preserve ``reason`` across the process-pool boundary (the
        # default exception reduce only carries ``args``).
        return (JobError, (self.args[0] if self.args else "", self.reason))


@dataclass(frozen=True)
class Job:
    """One validated request, keyed by its canonical content fingerprint."""

    key: str                       # coalescing/cache identity
    source: str                    # benchmark name or "kiss2:<fsm name>"
    spec: Dict[str, Any] = field(compare=False)

    @property
    def label(self) -> str:
        return f"evaluate:{self.source}"


def _require_fsm_source(body: Dict[str, Any]) -> Tuple[str, Any]:
    """Resolve the FSM the request names: benchmark or inline KISS2."""
    benchmark = body.get("benchmark")
    kiss = body.get("kiss")
    if (benchmark is None) == (kiss is None):
        raise JobError("request must provide exactly one of 'benchmark' or 'kiss'")
    if benchmark is not None:
        if not isinstance(benchmark, str) or benchmark not in BENCHMARK_SPECS:
            raise JobError(
                f"unknown benchmark {benchmark!r}; "
                f"available: {sorted(BENCHMARK_SPECS)}",
                reason="unknown_benchmark",
            )
        return benchmark, benchmark
    if not isinstance(kiss, str) or not kiss.strip():
        raise JobError("'kiss' must be non-empty KISS2 text")
    name = body.get("name", "fsm")
    if not isinstance(name, str) or not name:
        raise JobError("'name' must be a non-empty string")
    try:
        fsm = parse_kiss(kiss, name=name)
    except FsmError as exc:
        raise JobError(f"unparseable KISS2 text: {exc}", reason="bad_kiss")
    return f"kiss2:{name}", fsm


def _number(body: Dict[str, Any], key: str, default, lo, hi, integer=False):
    value = body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise JobError(f"'{key}' must be a number")
    if integer and int(value) != value:
        raise JobError(f"'{key}' must be an integer")
    if not (lo <= value <= hi):
        raise JobError(f"'{key}' must be in [{lo}, {hi}], got {value}")
    return int(value) if integer else float(value)


def _choice(body: Dict[str, Any], key: str, default: str, allowed) -> str:
    value = body.get(key, default)
    if value not in allowed:
        raise JobError(f"'{key}' must be one of {list(allowed)}, got {value!r}")
    return value


def _flag(body: Dict[str, Any], key: str, default: bool) -> bool:
    value = body.get(key, default)
    if not isinstance(value, bool):
        raise JobError(f"'{key}' must be a boolean")
    return value


def parse_job(body: Any) -> Job:
    """Validate a decoded evaluate request body into a :class:`Job` (or raise).

    A ``"kind"`` field is accepted only as ``"evaluate"``: the route
    never runs another job kind.
    """
    if not isinstance(body, dict):
        raise JobError("request body must be a JSON object")
    kind = body.get("kind", "evaluate")
    if kind != "evaluate":
        raise JobError(f"unknown job kind {kind!r} (expected 'evaluate')")
    unknown = set(body) - _EVALUATE_FIELDS
    if unknown:
        raise JobError(f"unknown field(s) for evaluate: {sorted(unknown)}")
    source, name_or_fsm = _require_fsm_source(body)
    frequencies = body.get("frequencies_mhz", list(PAPER_FREQUENCIES_MHZ))
    if (
        not isinstance(frequencies, (list, tuple))
        or not frequencies
        or len(frequencies) > MAX_FREQUENCIES
        or not all(
            isinstance(f, (int, float)) and not isinstance(f, bool) and 0 < f <= 10_000
            for f in frequencies
        )
    ):
        raise JobError(
            "'frequencies_mhz' must be 1.."
            f"{MAX_FREQUENCIES} frequencies in (0, 10000] MHz"
        )
    spec = {
        "name_or_fsm": name_or_fsm,
        "frequencies_mhz": tuple(float(f) for f in frequencies),
        "num_cycles": _number(body, "num_cycles", 2000, 1, MAX_CYCLES, integer=True),
        "idle_fraction": _number(body, "idle_fraction", 0.5, 0.0, 1.0),
        "seed": _number(body, "seed", 2004, 0, 2**63 - 1, integer=True),
        "encoding": _choice(body, "encoding", "binary", _ENCODINGS),
        "with_clock_control": _flag(body, "with_clock_control", True),
    }
    config = evaluation_config(
        spec["name_or_fsm"],
        frequencies_mhz=spec["frequencies_mhz"],
        num_cycles=spec["num_cycles"],
        idle_fraction=spec["idle_fraction"],
        seed=spec["seed"],
        encoding=spec["encoding"],
        with_clock_control=spec["with_clock_control"],
    )
    return Job(
        key=fingerprint(("evaluate", config)),
        source=source,
        spec=spec,
    )


# -- execution ---------------------------------------------------------


def _round(value: float, digits: int = 6) -> float:
    return round(float(value), digits)


def evaluate_payload(result: EvaluationResult) -> Dict[str, Any]:
    """Deterministic JSON-ready description of one evaluation result.

    This is the service's response *and* the reference shape the
    integration tests compare byte-for-byte against the direct
    :func:`~repro.flows.flow.evaluate_benchmark` path.
    """
    fsm = result.fsm
    frequencies = sorted(result.ff_power, key=float)
    power = {
        key: {
            "ff_mw": _round(result.ff_power[key].total_mw),
            "rom_mw": _round(result.rom_power[key].total_mw),
            "rom_cc_mw": (
                _round(result.rom_cc_power[key].total_mw)
                if key in result.rom_cc_power else None
            ),
        }
        for key in frequencies
    }
    savings = {
        key: {
            "rom_percent": _round(result.saving_percent(float(key)), 3),
            "rom_cc_percent": (
                _round(result.cc_saving_percent(float(key)), 3)
                if key in result.rom_cc_power else None
            ),
        }
        for key in frequencies
    }
    rom = result.rom_impl
    return {
        "name": fsm.name,
        "fsm": {
            "states": fsm.num_states,
            "inputs": fsm.num_inputs,
            "outputs": fsm.num_outputs,
        },
        "ff": {
            "luts": result.ff_impl.num_luts,
            "ffs": result.ff_impl.num_ffs,
            "encoding": result.ff_impl.encoding.style,
        },
        "rom": {
            "bram_config": rom.config.name,
            "brams": rom.num_brams,
            "addr_bits": rom.layout.addr_bits,
            "data_bits": rom.layout.data_bits,
            "lut_overhead": rom.utilization.luts,
        },
        "power_mw": power,
        "saving_percent": savings,
        "achieved_idle_fraction": _round(result.achieved_idle_fraction),
        "fmax_mhz": {
            "ff": _round(result.ff_timing.fmax_mhz, 3),
            "rom": _round(result.rom_timing.fmax_mhz, 3),
        },
    }


def run_job(
    job: Job,
    cache: Any = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> Tuple[Dict[str, Any], List[Any]]:
    """Execute a job synchronously; returns ``(payload, stage records)``.

    Designed to run inside the server's executor.  ``should_cancel`` is
    polled at pipeline stage boundaries (abandoned work stops early and
    raises :class:`~repro.pipeline.pipeline.PipelineCancelled`).
    """
    from repro import faults

    # Chaos hook: "raise" fails the job with a typed error before any
    # pipeline work, "stall" models a slow executor slot.
    faults.hit("service.job", kind="evaluate", source=job.source)
    spec = job.spec
    result, report = evaluate_benchmark_detailed(
        spec["name_or_fsm"],
        cache=cache,
        should_cancel=should_cancel,
        frequencies_mhz=spec["frequencies_mhz"],
        num_cycles=spec["num_cycles"],
        idle_fraction=spec["idle_fraction"],
        seed=spec["seed"],
        encoding=spec["encoding"],
        with_clock_control=spec["with_clock_control"],
    )
    return evaluate_payload(result), list(report.records)

