"""Classical FSM transformations.

The paper needs two of these directly:

* *Completion* — the ROM mapping programs a next-state word for **every**
  address, so unspecified (state, input) behaviour must be pinned down
  (we use the SIS/simulator convention: hold the state, output 0).
* *Mealy -> Moore* (paper section 4.2, citing Kohavi): when the output
  function of a Mealy machine is to be realized in LUTs external to the
  BRAM, the machine is first transformed so the output depends on the
  state alone.

Reachability pruning and Hopcroft-style state minimization round out the
toolbox (they are what SIS's ``state_minimize`` would do before mapping).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.fsm.machine import FSM, FsmError, Transition
from repro.logic.cube import Cover
from repro.logic.minimize import complement

__all__ = [
    "complete",
    "reachable_states",
    "remove_unreachable",
    "mealy_to_moore",
    "minimize_states",
]


def complete(fsm: FSM, default_output: str = None) -> FSM:
    """Return an equivalent machine specifying behaviour for every input.

    For each state, input space not covered by any outgoing cube gets
    self-loop transitions with ``default_output`` (all zeros unless
    given).  The result satisfies :meth:`FSM.is_complete`.
    """
    if default_output is None:
        default_output = "0" * fsm.num_outputs
    if len(default_output) != fsm.num_outputs:
        raise FsmError("default output width mismatch")
    result = fsm.copy()
    for state in fsm.states:
        covered = Cover(fsm.num_inputs, (t.inputs for t in fsm.transitions_from(state)))
        missing = complement(covered)
        for cube in missing:
            result.add_transition(
                Transition(src=state, dst=state, inputs=cube, outputs=default_output)
            )
    return result


def reachable_states(fsm: FSM) -> Set[str]:
    """States reachable from the reset state along STG edges."""
    seen: Set[str] = set()
    stack = [fsm.reset_state]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        for t in fsm.transitions_from(state):
            if t.dst not in seen:
                stack.append(t.dst)
    return seen


def remove_unreachable(fsm: FSM) -> FSM:
    """Drop states (and their transitions) unreachable from reset."""
    keep = reachable_states(fsm)
    states = [s for s in fsm.states if s in keep]
    transitions = [t for t in fsm.transitions if t.src in keep and t.dst in keep]
    return FSM(
        fsm.name, fsm.num_inputs, fsm.num_outputs, states, fsm.reset_state,
        transitions,
    )


def mealy_to_moore(fsm: FSM) -> FSM:
    """Transform a Mealy machine into an equivalent Moore-shaped machine.

    Each new state is a (state, entry-output) pair: the output produced on
    the edges *entering* it becomes the state's own output, emitted on all
    its outgoing edges (the STG encoding of a Moore machine).  The Moore
    machine's output stream is the Mealy stream delayed by the usual
    one-transition skew inherent to the transformation (Kohavi, ch. 10):
    the output of step k appears as the state output *after* taking the
    edge.  The reset state keeps an all-zero output, matching a cleared
    output register.

    The result satisfies :meth:`FSM.is_moore` and has at most
    ``|S| * |distinct outputs entering each state|`` states.
    """
    if fsm.is_moore():
        return fsm.copy()
    zero = "0" * fsm.num_outputs

    # Split each state by the distinct resolved outputs on entering edges.
    entry_outputs: Dict[str, Set[str]] = {s: set() for s in fsm.states}
    entry_outputs[fsm.reset_state].add(zero)
    for t in fsm.transitions:
        entry_outputs[t.dst].add(t.resolved_outputs())

    def split_name(state: str, out: str) -> str:
        return f"{state}${out}"

    new_states: List[str] = []
    for state in fsm.states:
        outs = sorted(entry_outputs[state]) or [zero]
        for out in outs:
            new_states.append(split_name(state, out))
        entry_outputs[state] = set(outs)

    reset = split_name(fsm.reset_state, zero)
    result = FSM(
        f"{fsm.name}_moore", fsm.num_inputs, fsm.num_outputs, new_states, reset
    )
    for t in fsm.transitions:
        out = t.resolved_outputs()
        dst = split_name(t.dst, out)
        for src_out in entry_outputs[t.src]:
            result.add_transition(
                Transition(
                    src=split_name(t.src, src_out),
                    dst=dst,
                    inputs=t.inputs,
                    # Moore convention: emit the *current* state's output.
                    outputs=src_out,
                )
            )
    return remove_unreachable(result)


def minimize_states(fsm: FSM, max_inputs: int = 16) -> FSM:
    """Merge behaviourally equivalent states (Moore/Mealy partition refinement).

    The machine should be deterministic; unspecified behaviour is treated
    as hold-with-zero-output (the simulation semantics), so minimization
    preserves the *simulated* behaviour exactly.
    """
    if fsm.num_inputs > max_inputs:
        raise FsmError(
            f"state minimization enumerates the input space; "
            f"{fsm.num_inputs} inputs exceeds the limit of {max_inputs}"
        )
    # Initial partition: states with identical per-input outputs.
    partition_of: Dict[str, int] = {s: 0 for s in fsm.states}

    # Treat "hold" destinations as self-referential by resolving lookup
    # misses to the state itself inside the signature via partition ids.
    while True:
        signatures: Dict[str, Tuple] = {}
        for state in fsm.states:
            sig = []
            for m in range(1 << fsm.num_inputs):
                t = fsm.lookup(state, m)
                if t is None:
                    sig.append((partition_of[state], "0" * fsm.num_outputs))
                else:
                    sig.append((partition_of[t.dst], t.resolved_outputs()))
            signatures[state] = tuple(sig)
        new_ids: Dict[Tuple, int] = {}
        new_partition: Dict[str, int] = {}
        for state in fsm.states:
            key = signatures[state]
            if key not in new_ids:
                new_ids[key] = len(new_ids)
            new_partition[state] = new_ids[key]
        if new_partition == partition_of:
            break
        partition_of = new_partition

    # Build the quotient machine; class representative = first state.
    rep_of_class: Dict[int, str] = {}
    for state in fsm.states:
        rep_of_class.setdefault(partition_of[state], state)
    new_states = [rep_of_class[c] for c in sorted(rep_of_class)]
    reset = rep_of_class[partition_of[fsm.reset_state]]
    result = FSM(fsm.name, fsm.num_inputs, fsm.num_outputs, new_states, reset)
    seen_edges = set()
    for t in fsm.transitions:
        src = rep_of_class[partition_of[t.src]]
        if src != t.src:
            continue  # keep only the representative's outgoing edges
        dst = rep_of_class[partition_of[t.dst]]
        key = (src, dst, t.inputs, t.outputs)
        if key in seen_edges:
            continue
        seen_edges.add(key)
        result.add_transition(
            Transition(src=src, dst=dst, inputs=t.inputs, outputs=t.outputs)
        )
    return result
