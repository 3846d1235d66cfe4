"""Request validation, canonical job keys, and pipeline execution.

A *job* is one validated compile/evaluate request.  Its ``key`` is the
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
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.bench.suite import BENCHMARK_SPECS
from repro.flows.flow import (
    PAPER_FREQUENCIES_MHZ,
    EvaluationResult,
    evaluate_benchmark_detailed,
    evaluation_config,
)
from repro.fsm.kiss import parse_kiss
from repro.fsm.machine import FSM, FsmError
from repro.pipeline.artifact import fingerprint
from repro.romfsm.mapper import map_fsm_to_rom

__all__ = [
    "Job",
    "JobError",
    "eco_payload",
    "evaluate_payload",
    "map_payload",
    "parse_job",
    "parse_batch",
    "run_job",
    "tune_payload",
]

MAX_CYCLES = 200_000
MAX_FREQUENCIES = 16
MAX_BATCH_ITEMS = 256
MAX_EDITS = 1024
# Tuning stimulus bound: every candidate pays for the cycles, so the
# service keeps grids affordable (the library accepts more).
MAX_TUNE_CYCLES = 20_000

_EVALUATE_FIELDS = {
    "kind", "benchmark", "kiss", "name", "frequencies_mhz", "num_cycles",
    "idle_fraction", "seed", "encoding", "with_clock_control",
}
_MAP_FIELDS = {
    "kind", "benchmark", "kiss", "name", "clock_control", "moore_outputs",
    "force_compaction",
}
_ECO_FIELDS = {
    "kind", "benchmark", "kiss", "name", "edits", "new_kiss", "new_name",
    "old_fingerprint", "frequencies_mhz", "num_cycles", "seed",
}
_TUNE_FIELDS = {
    "kind", "benchmark", "kiss", "name", "num_cycles", "seed",
    "frequency_mhz", "verify", "prune",
}
_ENCODINGS = ("binary", "gray", "one-hot", "johnson")
_MOORE_MODES = ("auto", "external", "internal")


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

    kind: str                      # "evaluate" | "map" | "eco"
    key: str                       # coalescing/cache identity
    source: str                    # benchmark name or "kiss2:<fsm name>"
    spec: Dict[str, Any] = field(compare=False)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.source}"


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


def parse_job(body: Any, kind: str = "evaluate") -> Job:
    """Validate a decoded request body into a :class:`Job` (or raise)."""
    if not isinstance(body, dict):
        raise JobError("request body must be a JSON object")
    kind = body.get("kind", kind)
    if kind == "evaluate":
        return _parse_evaluate(body)
    if kind == "map":
        return _parse_map(body)
    if kind == "eco":
        return _parse_eco(body)
    if kind == "tune":
        return _parse_tune(body)
    raise JobError(
        f"unknown job kind {kind!r} (expected 'evaluate', 'map', 'eco' "
        f"or 'tune')"
    )


def _parse_evaluate(body: Dict[str, Any]) -> Job:
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
        kind="evaluate",
        key=fingerprint(("evaluate", config)),
        source=source,
        spec=spec,
    )


def _parse_map(body: Dict[str, Any]) -> Job:
    unknown = set(body) - _MAP_FIELDS
    if unknown:
        raise JobError(f"unknown field(s) for map: {sorted(unknown)}")
    source, name_or_fsm = _require_fsm_source(body)
    spec = {
        "name_or_fsm": name_or_fsm,
        "clock_control": _flag(body, "clock_control", False),
        "moore_outputs": _choice(body, "moore_outputs", "auto", _MOORE_MODES),
        "force_compaction": _flag(body, "force_compaction", False),
    }
    key_spec = dict(spec)
    if isinstance(name_or_fsm, FSM):
        from repro.fsm.kiss import format_kiss

        key_spec["name_or_fsm"] = ("kiss2", name_or_fsm.name, format_kiss(name_or_fsm))
    return Job(
        kind="map",
        key=fingerprint(("map", key_spec)),
        source=source,
        spec=spec,
    )


def _parse_eco(body: Dict[str, Any]) -> Job:
    """Validate a ``POST /v1/eco`` body (old machine + edit script).

    The edited machine is materialized *here* — the edit script is
    applied (or the full replacement KISS2 parsed) at validation time —
    so a malformed or non-ROM-only edit is a 400 before any executor
    slot is spent on it.  Envelope violations only the mapped
    implementation can detect (external Moore LUTs, compaction columns)
    still surface from the pipeline as ``eco_rejected``.
    """
    unknown = set(body) - _ECO_FIELDS
    if unknown:
        raise JobError(f"unknown field(s) for eco: {sorted(unknown)}")
    source, name_or_fsm = _require_fsm_source(body)
    if isinstance(name_or_fsm, str):
        from repro.bench.suite import load_benchmark

        old_fsm = load_benchmark(name_or_fsm)
    else:
        old_fsm = name_or_fsm

    edits = body.get("edits")
    new_kiss = body.get("new_kiss")
    if (edits is None) == (new_kiss is None):
        raise JobError(
            "eco needs exactly one of 'edits' (an edit script) or "
            "'new_kiss' (the full edited machine)"
        )
    if edits is not None:
        if not isinstance(edits, list) or not edits:
            raise JobError("'edits' must be a non-empty list of edit objects")
        if len(edits) > MAX_EDITS:
            raise JobError(
                f"edit script of {len(edits)} entries exceeds the "
                f"{MAX_EDITS}-entry limit",
                reason="oversized",
            )
        from repro.fsm.diff import apply_edits

        try:
            new_fsm = apply_edits(old_fsm, edits)
            new_fsm.validate()
        except FsmError as exc:
            raise JobError(f"bad edit script: {exc}", reason="bad_edit")
    else:
        if not isinstance(new_kiss, str) or not new_kiss.strip():
            raise JobError("'new_kiss' must be non-empty KISS2 text")
        new_name = body.get("new_name", old_fsm.name)
        if not isinstance(new_name, str) or not new_name:
            raise JobError("'new_name' must be a non-empty string")
        try:
            new_fsm = parse_kiss(new_kiss, name=new_name)
            new_fsm.validate()
        except FsmError as exc:
            raise JobError(f"unparseable 'new_kiss' text: {exc}", reason="bad_kiss")

    from repro.fsm.diff import diff_fsm

    diff = diff_fsm(old_fsm, new_fsm)
    if not diff.rom_only:
        raise JobError(
            f"edit is not ROM-only; a full re-evaluation is required: "
            f"{diff.summary()}",
            reason="eco_rejected",
        )

    old_fingerprint = body.get("old_fingerprint")
    if old_fingerprint is not None and (
        not isinstance(old_fingerprint, str) or not old_fingerprint
    ):
        raise JobError("'old_fingerprint' must be a non-empty string")

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
        "new_fsm": new_fsm,
        "old_fingerprint": old_fingerprint,
        "frequencies_mhz": tuple(float(f) for f in frequencies),
        "num_cycles": _number(body, "num_cycles", 2000, 1, MAX_CYCLES, integer=True),
        "seed": _number(body, "seed", 2004, 0, 2**63 - 1, integer=True),
    }
    from repro.fsm.kiss import format_kiss

    key_spec = dict(spec)
    if isinstance(name_or_fsm, FSM):
        key_spec["name_or_fsm"] = (
            "kiss2", name_or_fsm.name, format_kiss(name_or_fsm)
        )
    key_spec["new_fsm"] = ("kiss2", new_fsm.name, format_kiss(new_fsm))
    return Job(
        kind="eco",
        key=fingerprint(("eco", key_spec)),
        source=source,
        spec=spec,
    )


def _parse_tune(body: Dict[str, Any]) -> Job:
    """Validate a ``POST /v1/tune`` body.

    The job key is the content fingerprint of the resolved tune request
    (machine + settings), so identical tune requests coalesce
    onto one search exactly like evaluations do — a tuning run is
    deterministic, every waiter gets the same frontier.
    """
    unknown = set(body) - _TUNE_FIELDS
    if unknown:
        raise JobError(f"unknown field(s) for tune: {sorted(unknown)}")
    source, name_or_fsm = _require_fsm_source(body)
    spec = {
        "name_or_fsm": name_or_fsm,
        "num_cycles": _number(
            body, "num_cycles", 512, 1, MAX_TUNE_CYCLES, integer=True
        ),
        "seed": _number(body, "seed", 2004, 0, 2**63 - 1, integer=True),
        "frequency_mhz": _number(body, "frequency_mhz", 100.0, 1e-3, 10_000.0),
        "verify": _flag(body, "verify", True),
        "prune": _flag(body, "prune", True),
    }
    key_spec = dict(spec)
    if isinstance(name_or_fsm, FSM):
        from repro.fsm.kiss import format_kiss

        key_spec["name_or_fsm"] = (
            "kiss2", name_or_fsm.name, format_kiss(name_or_fsm)
        )
    return Job(
        kind="tune",
        key=fingerprint(("tune", key_spec)),
        source=source,
        spec=spec,
    )


def parse_batch(body: Any) -> List[Union[Job, JobError]]:
    """Validate a ``/v1/batch`` campaign envelope.

    The envelope is ``{"items": [<evaluate/map bodies...>]}``; each item
    is validated exactly as the single-job endpoints validate it (an
    item may carry ``"kind": "map"``; the default is ``evaluate``).  A
    malformed envelope raises; a malformed *item* does not — it becomes
    a :class:`JobError` entry at its index, so one bad request line
    cannot sink an otherwise valid campaign.
    """
    if not isinstance(body, dict):
        raise JobError("batch body must be a JSON object")
    unknown = set(body) - {"items"}
    if unknown:
        raise JobError(f"unknown field(s) for batch: {sorted(unknown)}")
    items = body.get("items")
    if not isinstance(items, list) or not items:
        raise JobError("'items' must be a non-empty list of job bodies")
    if len(items) > MAX_BATCH_ITEMS:
        raise JobError(
            f"batch of {len(items)} items exceeds the "
            f"{MAX_BATCH_ITEMS}-item limit",
            reason="oversized",
        )
    parsed: List[Union[Job, JobError]] = []
    for item in items:
        try:
            parsed.append(parse_job(item, kind="evaluate"))
        except JobError as exc:
            parsed.append(exc)
    return parsed


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


def map_payload(impl) -> Dict[str, Any]:
    """JSON-ready description of one ROM mapping (the compile job)."""
    util = impl.utilization
    payload = {
        "bram_config": impl.config.name,
        "brams": impl.num_brams,
        "parallel_brams": impl.parallel_brams,
        "series_brams": impl.series_brams,
        "addr_bits": impl.layout.addr_bits,
        "data_bits": impl.layout.data_bits,
        "column_compacted": bool(impl.compaction),
        "lut_overhead": util.luts,
        "slices": util.slices,
        "clock_control": None,
    }
    if impl.clock_control is not None:
        payload["clock_control"] = {
            "luts": impl.clock_control.num_luts,
            "depth": impl.clock_control.depth,
        }
    return payload


def eco_payload(result) -> Dict[str, Any]:
    """JSON-ready description of one incremental ECO run.

    ``old_fingerprint``/``new_fingerprint`` are the ``rom-map`` and
    ``eco-patch`` stage fingerprints: quote the former back as
    ``old_fingerprint`` on a later request to assert the edit still
    targets the image it was built against.
    """
    frequencies = sorted(result.rom_power, key=float)
    impl = result.impl
    return {
        "name": result.new_fsm.name,
        "diff": result.diff.summary(),
        "changed_words": result.changed_words,
        "total_words": result.total_words,
        "old_fingerprint": result.old_rom_fingerprint,
        "new_fingerprint": result.new_rom_fingerprint,
        "rom": {
            "bram_config": impl.config.name,
            "brams": impl.num_brams,
            "addr_bits": impl.layout.addr_bits,
            "data_bits": impl.layout.data_bits,
            "lut_overhead": impl.utilization.luts,
        },
        "power_mw": {
            key: {"rom_mw": _round(result.rom_power[key].total_mw)}
            for key in frequencies
        },
        "fmax_mhz": {"rom": _round(result.rom_timing.fmax_mhz, 3)},
    }


def tune_payload(result) -> Dict[str, Any]:
    """JSON-ready description of one tuning run.

    The body *is* the replayable frontier artifact
    (:meth:`~repro.tune.frontier.TuneResult.to_artifact`): schema,
    settings, space, baseline, every frontier point with its candidate
    and fitness, plus the run's search stats — a client can save the
    ``result`` field verbatim and feed it to ``romfsm eval --tuned``.
    """
    payload = result.to_artifact()
    payload["best_power"] = result.best_power.as_dict()
    payload["best_power_saving_percent"] = _round(
        result.best_power_saving_percent(), 3
    )
    return payload


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
    faults.hit("service.job", kind=job.kind, source=job.source)
    if job.kind == "evaluate":
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
    if job.kind == "map":
        spec = job.spec
        name_or_fsm = spec["name_or_fsm"]
        if isinstance(name_or_fsm, str):
            from repro.bench.suite import load_benchmark

            fsm = load_benchmark(name_or_fsm)
        else:
            fsm = name_or_fsm
        impl = map_fsm_to_rom(
            fsm,
            clock_control=spec["clock_control"],
            moore_outputs=spec["moore_outputs"],
            force_compaction=spec["force_compaction"],
        )
        return map_payload(impl), []
    if job.kind == "tune":
        from repro.tune import tune_benchmark

        spec = job.spec
        # jobs=1: this already runs inside an executor worker, so the
        # search evaluates inline instead of nesting a process pool.
        result = tune_benchmark(
            spec["name_or_fsm"],
            jobs=1,
            cache=cache,
            num_cycles=spec["num_cycles"],
            seed=spec["seed"],
            frequency_mhz=spec["frequency_mhz"],
            verify=spec["verify"],
            prune=spec["prune"],
        )
        return tune_payload(result), []
    if job.kind == "eco":
        from repro.flows.eco import EcoError, eco_evaluate

        spec = job.spec
        try:
            result, report = eco_evaluate(
                spec["name_or_fsm"],
                new=spec["new_fsm"],
                cache=cache,
                should_cancel=should_cancel,
                old_fingerprint=spec["old_fingerprint"],
                frequencies_mhz=spec["frequencies_mhz"],
                num_cycles=spec["num_cycles"],
                seed=spec["seed"],
            )
        except EcoError as exc:
            raise JobError(str(exc), reason="eco_rejected") from exc
        return eco_payload(result), list(report.records)
    raise JobError(f"unknown job kind {job.kind!r}")
