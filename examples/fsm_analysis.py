"""Static analysis of a control FSM before committing to an implementation.

Run:  python examples/fsm_analysis.py [benchmark]

Before spending a block RAM or synthesizing clock control, a designer
wants to know: how much of its life will the machine idle (is §6 clock
stopping worth it)?  Which state assignment minimizes register
switching?  This script runs the library's analytic toolbox — Markov
occupancy, idle prediction, and annealed state assignment — and prints
a report, no simulation required.
"""

import sys

from repro import load_benchmark
from repro.fsm.assign import (
    anneal_encoding,
    encoding_switching_cost,
    transition_weights,
)
from repro.fsm.encoding import binary_encoding, gray_encoding
from repro.fsm.markov import (
    expected_idle_fraction,
    expected_state_bit_activity,
    stationary_distribution,
    transition_matrix,
)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "planet"
    fsm = load_benchmark(name)
    print(f"=== {name}: {fsm.num_states} states, {fsm.num_inputs} inputs, "
          f"{fsm.num_outputs} outputs, {len(fsm.transitions)} edges ===\n")

    # --- occupancy -------------------------------------------------------
    pi = stationary_distribution(transition_matrix(fsm))
    hot = sorted(zip(fsm.states, pi), key=lambda kv: -kv[1])[:5]
    print("hottest states (uniform-input stationary occupancy):")
    for state, p in hot:
        print(f"  {state:10s} {p:6.1%}")

    idle = expected_idle_fraction(fsm)
    print(f"\npredicted idle fraction: {idle:.1%}  "
          f"({'clock control recommended' if idle > 0.25 else 'clock control marginal'})")

    # --- state assignment -------------------------------------------------
    weights = transition_weights(fsm)
    rows = [
        ("binary", binary_encoding(fsm)),
        ("gray", gray_encoding(fsm)),
        ("annealed", anneal_encoding(fsm, seed=1)),
    ]
    print("\nstate-assignment switching cost (expected weighted bit flips):")
    for label, encoding in rows:
        cost = encoding_switching_cost(encoding, weights)
        activity = expected_state_bit_activity(fsm, encoding)
        print(f"  {label:9s} cost={cost:7.2f}  "
              f"register toggles/cycle={activity:.3f}")


if __name__ == "__main__":
    main()
