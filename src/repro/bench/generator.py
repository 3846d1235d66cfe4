"""Seeded random-FSM generator with controllable STG statistics.

Each state's outgoing transitions are produced by growing a random
binary decision tree over a per-state subset of the input columns (the
state's *care set*): every leaf becomes one transition cube binding
exactly the columns on its path.  This construction guarantees

* **determinism** — leaf cubes of one tree are disjoint by construction;
* **completeness** — the leaves tile the whole input space;
* **compaction structure** — a state's cubes bind only its care columns,
  the exact property the paper's column compaction exploits (Fig. 4);
* **idle opportunities** — a tunable fraction of leaves self-loop with a
  repeated output, feeding the section 6 clock-control experiments.

All randomness flows from one seed, so benchmarks are bit-reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.fsm.machine import FSM, Transition
from repro.logic.cube import Cube

__all__ = ["GeneratorSpec", "generate_fsm"]


@dataclass(frozen=True)
class GeneratorSpec:
    """Target statistics for one generated FSM.

    Attributes
    ----------
    name / num_states / num_inputs / num_outputs:
        Interface statistics (matched to the published benchmark).
    care_inputs:
        Input columns a state examines, ``(min, max)`` inclusive; the
        gap between ``max`` and ``num_inputs`` sets the don't-care
        density and hence the column-compaction win.
    branch_probability:
        Probability an unexpanded decision-tree node splits again;
        higher values mean more, finer transitions per state.
    self_loop_bias:
        Probability a leaf targets its own state (idle-state supply).
    successors:
        ``(min, max)`` distinct successor states each state may target
        (besides itself).  Real control FSMs branch to only a handful of
        next states, which is what keeps their next-state logic small;
        unrestricted random targets would synthesize to near-random
        (incompressible) functions.
    column_locality:
        0.0 draws each state's care columns uniformly; values toward 1.0
        bias every state toward the same low-numbered input columns,
        mimicking real controllers where a few condition inputs are
        consulted by most states (this also bounds the input
        multiplexer's select fan-in under column compaction).
    moore:
        Emit a Moore machine (one output pattern per state) instead of
        Mealy (output per transition).
    distinct_outputs:
        Pool size of output patterns to draw from (small pools mimic the
        sparse output spaces of control-dominated MCNC circuits).
    seed:
        Generator seed; everything is deterministic given the spec.
    """

    name: str
    num_states: int
    num_inputs: int
    num_outputs: int
    care_inputs: Tuple[int, int]
    branch_probability: float = 0.55
    self_loop_bias: float = 0.25
    successors: Tuple[int, int] = (2, 4)
    moore: bool = False
    distinct_outputs: Optional[int] = None
    column_locality: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.care_inputs
        if not 0 <= lo <= hi <= self.num_inputs:
            raise ValueError(f"bad care_inputs range {self.care_inputs}")
        if self.num_states < 1:
            raise ValueError("need at least one state")


def _grow_leaves(
    rng: random.Random, columns: Sequence[int], branch_probability: float,
    num_inputs: int,
) -> List[Cube]:
    """Random decision-tree leaves as disjoint cubes tiling the input space."""
    leaves: List[Cube] = []

    def grow(cube: Cube, remaining: List[int], depth: int) -> None:
        must_split = depth == 0 and remaining  # examine at least one column
        if remaining and (must_split or rng.random() < branch_probability):
            col = remaining[0]
            rest = remaining[1:]
            for value in (0, 1):
                bound = cube.restrict_var(col, value)
                assert bound is not None
                grow(bound, rest, depth + 1)
        else:
            leaves.append(cube)

    order = list(columns)
    rng.shuffle(order)
    grow(Cube.full(num_inputs), order, 0)
    return leaves


def _output_pool(
    rng: random.Random, num_outputs: int, pool_size: int
) -> List[str]:
    patterns = {"0" * num_outputs}
    attempts = 0
    while len(patterns) < pool_size and attempts < pool_size * 20:
        attempts += 1
        patterns.add(
            "".join(rng.choice("01") for _ in range(num_outputs))
        )
    return sorted(patterns)


def generate_fsm(spec: GeneratorSpec) -> FSM:
    """Generate a deterministic, complete FSM matching ``spec``.

    The reset state is ``s0``; state ``k`` is ``s{k}``.  Reachability is
    enforced by wiring one leaf of state ``s{k}`` to ``s{k+1}`` for every
    ``k`` (a guaranteed spanning chain), with all other leaf targets
    drawn randomly.
    """
    rng = random.Random(spec.seed)
    states = [f"s{k}" for k in range(spec.num_states)]
    pool_size = spec.distinct_outputs or max(2, min(1 << spec.num_outputs, 8))
    pool = _output_pool(rng, spec.num_outputs, pool_size)
    moore_output = {s: rng.choice(pool) for s in states}
    moore_output[states[0]] = pool[0] if spec.moore else moore_output[states[0]]

    fsm = FSM(
        spec.name, spec.num_inputs, spec.num_outputs, states, states[0]
    )
    lo, hi = spec.care_inputs
    all_columns = list(range(spec.num_inputs))

    s_lo, s_hi = spec.successors

    def draw_columns(k: int) -> List[int]:
        if not k:
            return []
        if spec.column_locality <= 0.0:
            return rng.sample(all_columns, k)
        exponent = 3.0 * spec.column_locality
        chosen: List[int] = []
        candidates = list(all_columns)
        while len(chosen) < k and candidates:
            weights = [
                (spec.num_inputs - c) ** exponent for c in candidates
            ]
            pick = rng.choices(candidates, weights=weights, k=1)[0]
            chosen.append(pick)
            candidates.remove(pick)
        return chosen

    for idx, state in enumerate(states):
        k = rng.randint(lo, hi)
        columns = draw_columns(k)
        leaves = _grow_leaves(
            rng, columns, spec.branch_probability, spec.num_inputs
        )
        # Each state branches to a small successor pool, always
        # including the chain successor that guarantees reachability.
        pool_size = min(rng.randint(max(1, s_lo), max(1, s_hi)),
                        spec.num_states)
        # One leaf per state guarantees the chain to the next state (the
        # last state wraps to the reset state so no state is absorbing);
        # the chain target counts against the successor budget.
        chain_target = states[(idx + 1) % len(states)]
        succ_pool = [chain_target] if chain_target != state else []
        others = [s for s in states if s != state and s not in succ_pool]
        rng.shuffle(others)
        succ_pool.extend(others[: max(0, pool_size - len(succ_pool))])
        if not succ_pool:
            succ_pool = [state]
        chain_leaf = rng.randrange(len(leaves)) if len(states) > 1 else None
        for j, cube in enumerate(leaves):
            if chain_leaf is not None and j == chain_leaf:
                dst = chain_target
            elif rng.random() < spec.self_loop_bias:
                dst = state
            else:
                dst = rng.choice(succ_pool)
            if spec.moore:
                out = moore_output[state]
            elif rng.random() < 0.8:
                # Mealy outputs correlate strongly with the destination
                # state in real control FSMs; tying most leaf outputs to
                # the target keeps the output logic compressible and
                # makes self-loops repeat their output (genuine idles).
                out = moore_output[dst]
            else:
                out = rng.choice(pool)
            fsm.add_transition(
                Transition(src=state, dst=dst, inputs=cube, outputs=out)
            )
    fsm.validate()
    return fsm
