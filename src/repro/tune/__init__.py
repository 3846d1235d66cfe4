"""Search-based encoding and mapper auto-tuning (``romfsm tune``).

The paper maps every machine with one fixed heuristic — binary
encoding, widest-first aspect selection, the Fig. 4 compaction policy.
This package searches the mapper's free knobs for the Pareto-optimal
configurations under the paper's own power/area/timing models.
Candidates are canonical fingerprinted configurations; each one is
planned (the Fig. 5 decisions only), each distinct plan is built once
to dedupe and bound it, and only the survivors are mapped again and
scored, in batches on the crash-tolerant process-pool driver.  Pareto-dominated structures are pruned by an exact lower
bound, and each candidate's bounds and fitness are memoised as two
small sidecar entries in the artifact cache — so wall-clock scales
with the frontier, not the grid, and a warm search maps nothing.

Entry points: :func:`tune_benchmark` (library) and ``romfsm tune``
(CLI).  The result is a replayable frontier
artifact: any stored point re-maps and re-scores to bit-identical
objectives (:func:`replay_point`).
"""

from repro.tune.fitness import (
    BLOCK_LUT_EQUIV,
    DEFAULT_TUNE_CYCLES,
    DEFAULT_TUNE_FREQUENCY_MHZ,
    ImplBounds,
    area_cost,
    score,
)
from repro.tune.frontier import (
    OBJECTIVES,
    FrontierPoint,
    TuneResult,
    dominates,
    load_frontier,
    pareto_front,
)
from repro.tune.search import (
    BATCH_SIZE,
    replay_point,
    tune_benchmark,
)
from repro.tune.space import (
    TuneCandidate,
    TuneSpace,
    baseline_candidate,
    default_space,
)

__all__ = [
    "BATCH_SIZE",
    "BLOCK_LUT_EQUIV",
    "DEFAULT_TUNE_CYCLES",
    "DEFAULT_TUNE_FREQUENCY_MHZ",
    "OBJECTIVES",
    "FrontierPoint",
    "ImplBounds",
    "TuneCandidate",
    "TuneResult",
    "TuneSpace",
    "area_cost",
    "baseline_candidate",
    "default_space",
    "dominates",
    "load_frontier",
    "pareto_front",
    "replay_point",
    "score",
    "tune_benchmark",
]
