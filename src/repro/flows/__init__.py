"""End-to-end experiment flows: implement both designs, simulate,
estimate power, and regenerate the paper's tables."""

from repro.flows.flow import (
    EvaluationResult,
    PAPER_FREQUENCIES_MHZ,
    evaluate_benchmark,
    evaluate_benchmark_detailed,
    evaluate_many,
    implement_ff,
    implement_rom,
)
from repro.flows.eco import EcoError, EcoResult, eco_evaluate
from repro.flows.tables import (
    last_run_manifest,
    run_all,
    table1,
    table2,
    table3,
    table4,
)

__all__ = [
    "EvaluationResult",
    "PAPER_FREQUENCIES_MHZ",
    "evaluate_benchmark",
    "evaluate_benchmark_detailed",
    "evaluate_many",
    "implement_ff",
    "implement_rom",
    "run_all",
    "last_run_manifest",
    "table1",
    "table2",
    "table3",
    "table4",
    "EcoError",
    "EcoResult",
    "eco_evaluate",
]
