"""The annealing state assignment as it was before the in-place rewrite.

Frozen copy of ``repro.fsm.assign.anneal_encoding`` that copies the
code dict and recomputes the full cost with ``bin(x).count("1")`` on
every move.  ``tests/fsm/test_anneal_differential.py`` holds the live
function equal to it, code for code.
"""

from __future__ import annotations

import math
import random
from typing import Dict

from repro.fsm.assign import transition_weights
from repro.fsm.encoding import StateEncoding
from repro.fsm.machine import FSM


def reference_anneal_encoding(
    fsm: FSM,
    iterations: int = 4000,
    seed: int = 0,
    pin_reset_to_zero: bool = True,
    initial_temperature: float = 1.0,
) -> StateEncoding:
    """Search for a switching-minimal dense binary encoding.

    Parameters
    ----------
    fsm:
        The machine; at least one state.
    iterations:
        Annealing moves; each proposes a code swap or a relocation into
        an unused code and accepts by the Metropolis criterion on the
        weighted-switching cost.
    pin_reset_to_zero:
        Keep the reset state at code 0 (required by the ROM mapping;
        harmless for the FF flow).
    """
    states = list(fsm.states)
    width = max(1, math.ceil(math.log2(len(states)))) if len(states) > 1 else 1
    code_space = 1 << width
    rng = random.Random(seed)
    weights = transition_weights(fsm)

    codes: Dict[str, int] = {}
    order = [fsm.reset_state] + [s for s in states if s != fsm.reset_state]
    for index, state in enumerate(order):
        codes[state] = index

    def cost_of(assignment: Dict[str, int]) -> float:
        total = 0.0
        for (src, dst), weight in weights.items():
            diff = assignment[src] ^ assignment[dst]
            total += weight * bin(diff).count("1")
        return total

    current_cost = cost_of(codes)
    best = dict(codes)
    best_cost = current_cost
    temperature = initial_temperature

    # All states move freely; the reset pin is restored afterwards by an
    # XOR translation, which preserves every pairwise Hamming distance
    # and therefore the cost.
    movable = states
    if len(movable) < 2 or not weights:
        return StateEncoding("annealed", width, codes)

    used = set(codes.values())
    free_codes = [c for c in range(code_space) if c not in used]

    for step in range(iterations):
        temperature = initial_temperature * (1.0 - step / iterations) + 1e-6
        state = rng.choice(movable)
        move_to_free = free_codes and rng.random() < 0.3
        trial = dict(codes)
        if move_to_free:
            new_code = rng.choice(free_codes)
            old_code = trial[state]
            trial[state] = new_code
        else:
            other = rng.choice(movable)
            if other == state:
                continue
            trial[state], trial[other] = trial[other], trial[state]
        trial_cost = cost_of(trial)
        delta = trial_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            if move_to_free:
                free_codes.remove(trial[state])
                free_codes.append(old_code)
            codes = trial
            current_cost = trial_cost
            if current_cost < best_cost:
                best = dict(codes)
                best_cost = current_cost

    if pin_reset_to_zero and best[fsm.reset_state] != 0:
        # Restore the pin by XOR-translating every code (preserves all
        # pairwise Hamming distances, hence the cost).
        shift = best[fsm.reset_state]
        best = {s: c ^ shift for s, c in best.items()}
    return StateEncoding("annealed", width, best)
