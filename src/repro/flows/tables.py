"""Regeneration of the paper's Tables 1-4.

Each ``tableN`` function returns ``(headers, rows)`` and a formatted
string via :func:`repro.power.report.format_table`; the benchmark order
matches the paper's rows.  ``run_all`` evaluates every benchmark once
and feeds all four tables from the shared results, exactly as the
paper's single experimental campaign did.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.suite import PAPER_BENCHMARKS
from repro.flows.flow import PAPER_FREQUENCIES_MHZ, EvaluationResult, evaluate_many
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.driver import RunManifest
from repro.power.report import format_table

__all__ = [
    "run_all",
    "table1",
    "table2",
    "table3",
    "table4",
    "TableResult",
    "last_run_manifest",
    "clear_results_memo",
]


class TableResult:
    """Headers + rows + pre-formatted text of one regenerated table."""

    def __init__(self, title: str, headers: Sequence[str], rows: List[List[object]]):
        self.title = title
        self.headers = list(headers)
        self.rows = rows

    @property
    def text(self) -> str:
        return f"{self.title}\n{format_table(self.headers, self.rows)}"

    def row_for(self, benchmark: str) -> List[object]:
        for row in self.rows:
            if row[0] == benchmark:
                return row
        raise KeyError(f"no row for benchmark {benchmark!r}")

    def __str__(self) -> str:
        return self.text


# In-process memo so the four tables share one evaluation campaign
# (results are identical for any jobs/cache setting, so neither is part
# of the memo key).  The cross-process memo is the artifact cache.
_RESULTS_MEMO: Dict[
    Tuple[int, int, float], Dict[str, EvaluationResult]
] = {}
_LAST_MANIFEST: Optional[RunManifest] = None


def run_all(
    num_cycles: int = 2000,
    seed: int = 2004,
    idle_fraction: float = 0.5,
    jobs: int = 1,
    cache: Union[None, bool, str, ArtifactCache] = None,
) -> Dict[str, EvaluationResult]:
    """Evaluate the full benchmark set (memoized across the four tables).

    ``jobs`` shards the nine independent benchmark evaluations across
    worker processes; ``cache`` (a directory or ready
    :class:`~repro.pipeline.cache.ArtifactCache`) serves repeated runs
    from the content-addressed artifact store.  The per-run stage
    timings and hit/miss counts are available afterwards from
    :func:`last_run_manifest`.
    """
    global _LAST_MANIFEST
    key = (num_cycles, seed, idle_fraction)
    if key in _RESULTS_MEMO:
        return _RESULTS_MEMO[key]
    results, manifest = evaluate_many(
        PAPER_BENCHMARKS,
        jobs=jobs,
        cache=cache,
        num_cycles=num_cycles,
        seed=seed,
        idle_fraction=idle_fraction,
    )
    _RESULTS_MEMO[key] = results
    _LAST_MANIFEST = manifest
    return results


def last_run_manifest() -> Optional[RunManifest]:
    """Manifest of the most recent :func:`run_all` campaign (or None)."""
    return _LAST_MANIFEST


def clear_results_memo() -> None:
    """Drop the in-process results memo (the disk cache is untouched)."""
    _RESULTS_MEMO.clear()


def table1(results: Optional[Dict[str, EvaluationResult]] = None) -> TableResult:
    """Table 1: FPGA device utilization for both approaches."""
    results = results or run_all()
    rows = []
    for name in PAPER_BENCHMARKS:
        r = results[name]
        ff = r.ff_impl.utilization
        rom = r.rom_impl.utilization
        rows.append([
            name, ff.luts, ff.ffs, ff.slices, rom.luts, rom.slices, rom.brams,
        ])
    return TableResult(
        "Table 1: device utilization (FF/LUT based FSM vs EMB based FSM)",
        ["benchmark", "FF:LUT", "FF:FF", "FF:slice",
         "EMB:LUT", "EMB:slice", "EMB:blockRAM"],
        rows,
    )


def table2(results: Optional[Dict[str, EvaluationResult]] = None) -> TableResult:
    """Table 2: power (mW) at 50/85/100 MHz and % saving at 100 MHz."""
    results = results or run_all()
    rows = []
    for name in PAPER_BENCHMARKS:
        r = results[name]
        row: List[object] = [name]
        for f in PAPER_FREQUENCIES_MHZ:
            row.append(r.ff_power[f"{f:g}"].total_mw)
        for f in PAPER_FREQUENCIES_MHZ:
            row.append(r.rom_power[f"{f:g}"].total_mw)
        row.append(r.saving_percent(100.0))
        rows.append(row)
    return TableResult(
        "Table 2: power (mW), FF/LUT vs EMB implementation",
        ["benchmark",
         "FF@50", "FF@85", "FF@100",
         "EMB@50", "EMB@85", "EMB@100",
         "saving@100 (%)"],
        rows,
    )


def table3(results: Optional[Dict[str, EvaluationResult]] = None) -> TableResult:
    """Table 3: EMB power with clock control (~50% idle) and % saving."""
    results = results or run_all()
    rows = []
    for name in PAPER_BENCHMARKS:
        r = results[name]
        row: List[object] = [name]
        for f in PAPER_FREQUENCIES_MHZ:
            row.append(r.rom_cc_power[f"{f:g}"].total_mw)
        row.append(r.cc_saving_percent(100.0))
        row.append(100.0 * r.achieved_idle_fraction)
        rows.append(row)
    return TableResult(
        "Table 3: EMB FSM power (mW) with clock-control logic (target 50% idle)",
        ["benchmark", "EMB+cc@50", "EMB+cc@85", "EMB+cc@100",
         "saving vs FF@100 (%)", "achieved idle (%)"],
        rows,
    )


def table4(results: Optional[Dict[str, EvaluationResult]] = None) -> TableResult:
    """Table 4: area overhead of the clock-control logic."""
    results = results or run_all()
    rows = []
    for name in PAPER_BENCHMARKS:
        r = results[name]
        cc = r.rom_cc_impl.clock_control
        extra_luts = cc.num_luts
        # Slices occupied by the overhead LUTs alone.
        extra_slices = -(-extra_luts // 2)
        rows.append([name, extra_luts, extra_slices])
    return TableResult(
        "Table 4: area overhead of clock-control logic",
        ["benchmark", "LUTs", "slices"],
        rows,
    )
