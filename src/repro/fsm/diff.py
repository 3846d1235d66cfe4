"""Transition-level FSM diffing and edit scripts for the ECO path.

The paper's selling point #4 is that a fielded ROM-based FSM absorbs a
functional change by rewriting memory words — no re-synthesis, no
re-place-and-route.  To exploit that in the pipeline we need to know
*what kind* of change an edit is: :func:`diff_fsm` compares two machines
transition by transition and classifies the result, and
:func:`apply_edits` builds the edited machine from a small declarative
edit script (the format of ``romfsm eco --edits``).

A diff is *ROM-only* when the interface envelope is unchanged — same
input/output widths, same state set, same reset state — so only the
transition function delta/Y moved.  That is the precondition for
:meth:`repro.romfsm.impl.RomFsmImplementation.rewrite_contents`; the
remaining structural guards (Moore output LUTs, clock control, the
compaction column envelope) depend on how the *old* machine was mapped
and are enforced by the rewrite itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.fsm.machine import FSM, FsmError, Transition
from repro.logic.cube import Cube

__all__ = ["FsmDiff", "diff_fsm", "apply_edits"]


@dataclass(frozen=True)
class FsmDiff:
    """Result of comparing two machines transition by transition.

    ``modified`` pairs transitions that kept their (source state, input
    cube) key but changed destination and/or outputs; ``added`` and
    ``removed`` hold the unmatched remainder.
    """

    interface_changed: bool
    states_changed: bool
    reset_changed: bool
    added: Tuple[Transition, ...]
    removed: Tuple[Transition, ...]
    modified: Tuple[Tuple[Transition, Transition], ...]

    @property
    def is_empty(self) -> bool:
        return not (
            self.interface_changed
            or self.states_changed
            or self.reset_changed
            or self.added
            or self.removed
            or self.modified
        )

    @property
    def rom_only(self) -> bool:
        """True when only transition behaviour changed — the envelope
        (I/O widths, state set, reset) is intact, so the change can in
        principle be absorbed by rewriting ROM words."""
        return not (
            self.interface_changed or self.states_changed or self.reset_changed
        )

    @property
    def touched_states(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for t in self.added + self.removed:
            if t.src not in seen:
                seen.append(t.src)
        for old, _new in self.modified:
            if old.src not in seen:
                seen.append(old.src)
        return tuple(seen)

    @property
    def num_changes(self) -> int:
        return len(self.added) + len(self.removed) + len(self.modified)

    def summary(self) -> Dict[str, object]:
        """JSON-shaped digest for service payloads and CLI output."""
        return {
            "rom_only": self.rom_only,
            "interface_changed": self.interface_changed,
            "states_changed": self.states_changed,
            "reset_changed": self.reset_changed,
            "added": len(self.added),
            "removed": len(self.removed),
            "modified": len(self.modified),
            "touched_states": list(self.touched_states),
        }


def _key(t: Transition) -> Tuple[str, int, int]:
    return (t.src, t.inputs.zero_mask, t.inputs.one_mask)


def _behaviour(t: Transition) -> Tuple[str, str]:
    return (t.dst, t.outputs)


def diff_fsm(old: FSM, new: FSM) -> FsmDiff:
    """Compute the transition-level delta from ``old`` to ``new``."""
    interface_changed = (
        old.num_inputs != new.num_inputs or old.num_outputs != new.num_outputs
    )
    states_changed = set(old.states) != set(new.states)
    reset_changed = old.reset_state != new.reset_state

    old_by_key: Dict[Tuple[str, int, int], List[Transition]] = {}
    for t in old.transitions:
        old_by_key.setdefault(_key(t), []).append(t)

    added: List[Transition] = []
    modified: List[Tuple[Transition, Transition]] = []
    if interface_changed:
        # Cubes of different widths never match; everything is new.
        added = list(new.transitions)
        removed = list(old.transitions)
        return FsmDiff(
            interface_changed=True,
            states_changed=states_changed,
            reset_changed=reset_changed,
            added=tuple(added),
            removed=tuple(removed),
            modified=(),
        )

    for t in new.transitions:
        bucket = old_by_key.get(_key(t))
        if bucket:
            match = None
            for i, candidate in enumerate(bucket):
                if _behaviour(candidate) == _behaviour(t):
                    match = bucket.pop(i)
                    break
            if match is not None:
                continue  # unchanged transition
            modified.append((bucket.pop(0), t))
        else:
            added.append(t)
    removed = [t for bucket in old_by_key.values() for t in bucket]

    return FsmDiff(
        interface_changed=False,
        states_changed=states_changed,
        reset_changed=reset_changed,
        added=tuple(added),
        removed=tuple(removed),
        modified=tuple(modified),
    )


def _edit_cube(edit: Mapping[str, object], num_inputs: int, where: str) -> Cube:
    pattern = edit.get("input")
    if not isinstance(pattern, str):
        raise FsmError(f"{where}: 'input' must be a cube string over 01-")
    try:
        cube = Cube.from_string(pattern)
    except ValueError as exc:
        raise FsmError(f"{where}: bad input cube {pattern!r}: {exc}") from None
    if cube.n_vars != num_inputs:
        raise FsmError(
            f"{where}: input cube {pattern!r} has {cube.n_vars} vars, "
            f"machine has {num_inputs} inputs"
        )
    return cube


_EDIT_FIELDS = {"state", "input", "next", "outputs", "remove"}


def apply_edits(fsm: FSM, edits: Sequence[Mapping[str, object]]) -> FSM:
    """Apply a declarative edit script and return the edited machine.

    Each edit addresses the transitions of ``state`` whose input cube
    equals ``input`` and either replaces them (``next`` + ``outputs``;
    adds the transition when none matched) or deletes them
    (``remove: true``).  The original machine is not modified.  Edits
    cannot add states or change the interface — by construction the
    result differs from ``fsm`` by a ROM-only diff, which is exactly
    what the ECO pipeline can absorb without re-synthesis.
    """
    transitions: List[Transition] = list(fsm.transitions)
    for pos, edit in enumerate(edits):
        where = f"edit #{pos}"
        if not isinstance(edit, Mapping):
            raise FsmError(f"{where}: must be an object")
        unknown = set(edit) - _EDIT_FIELDS
        if unknown:
            raise FsmError(f"{where}: unknown fields {sorted(unknown)}")
        state = edit.get("state")
        if not isinstance(state, str) or state not in fsm.states:
            raise FsmError(f"{where}: unknown state {state!r}")
        cube = _edit_cube(edit, fsm.num_inputs, where)
        matches = [
            i
            for i, t in enumerate(transitions)
            if t.src == state and t.inputs == cube
        ]
        if edit.get("remove"):
            if "next" in edit or "outputs" in edit:
                raise FsmError(f"{where}: 'remove' excludes 'next'/'outputs'")
            if not matches:
                raise FsmError(
                    f"{where}: no transition from {state!r} on {edit['input']!r}"
                )
            for i in reversed(matches):
                del transitions[i]
            continue
        dst = edit.get("next")
        outputs = edit.get("outputs")
        if not isinstance(dst, str) or dst not in fsm.states:
            raise FsmError(f"{where}: unknown destination state {dst!r}")
        if not isinstance(outputs, str) or len(outputs) != fsm.num_outputs:
            raise FsmError(
                f"{where}: 'outputs' must be a pattern of "
                f"{fsm.num_outputs} chars over 01-"
            )
        replacement = Transition(src=state, dst=dst, inputs=cube, outputs=outputs)
        if matches:
            transitions[matches[0]] = replacement
            for i in reversed(matches[1:]):
                del transitions[i]
        else:
            transitions.append(replacement)
    return FSM(
        fsm.name,
        fsm.num_inputs,
        fsm.num_outputs,
        fsm.states,
        fsm.reset_state,
        transitions,
    )
