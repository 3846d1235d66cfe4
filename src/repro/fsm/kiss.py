"""KISS2 parsing and formatting.

KISS2 is the MCNC interchange format for state-transition graphs, used
by SIS (the synthesis front-end in the paper's experimental flow,
Fig. 6).  A file looks like::

    .i 2
    .o 1
    .s 4
    .p 8
    .r A
    0- A A 0
    1- A B 0
    ...
    .e

Each transition line is ``<input-cube> <src> <dst> <output-pattern>``.
The ``.p`` (product/transition count), ``.s`` (state count) and ``.e``
terminator are optional on input and always emitted on output.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.fsm.machine import FSM, FsmError, Transition
from repro.logic.cube import Cube

__all__ = ["parse_kiss", "format_kiss", "load_kiss_file", "save_kiss_file"]


def parse_kiss(text: str, name: str = "fsm") -> FSM:
    """Parse KISS2 ``text`` into an :class:`~repro.fsm.machine.FSM`.

    State order follows first appearance (source before destination),
    which keeps state encodings stable across round-trips.
    """
    num_inputs: Optional[int] = None
    num_outputs: Optional[int] = None
    declared_states: Optional[int] = None
    declared_products: Optional[int] = None
    reset: Optional[str] = None
    raw_transitions: List[tuple] = []
    state_order: List[str] = []
    seen_states = set()

    def note_state(s: str) -> None:
        if s not in seen_states:
            seen_states.add(s)
            state_order.append(s)

    def directive_int(lineno: int, directive: str, fields: List[str]) -> int:
        if len(fields) != 2:
            raise FsmError(
                f"line {lineno}: {directive} expects exactly one numeric "
                f"argument, got {len(fields) - 1}"
            )
        try:
            value = int(fields[1])
        except ValueError:
            raise FsmError(
                f"line {lineno}: {directive} argument {fields[1]!r} is not "
                f"an integer"
            ) from None
        if value < 0:
            raise FsmError(f"line {lineno}: {directive} must be non-negative")
        return value

    def reject_duplicate(lineno: int, directive: str, current) -> None:
        if current is not None:
            raise FsmError(f"line {lineno}: duplicate {directive} directive")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            fields = line.split()
            directive = fields[0]
            if directive == ".i":
                reject_duplicate(lineno, directive, num_inputs)
                num_inputs = directive_int(lineno, directive, fields)
            elif directive == ".o":
                reject_duplicate(lineno, directive, num_outputs)
                num_outputs = directive_int(lineno, directive, fields)
            elif directive == ".s":
                reject_duplicate(lineno, directive, declared_states)
                declared_states = directive_int(lineno, directive, fields)
            elif directive == ".p":
                reject_duplicate(lineno, directive, declared_products)
                declared_products = directive_int(lineno, directive, fields)
            elif directive == ".r":
                reject_duplicate(lineno, directive, reset)
                if len(fields) != 2:
                    raise FsmError(
                        f"line {lineno}: .r expects exactly one state name"
                    )
                reset = fields[1]
            elif directive in (".e", ".end"):
                break
            elif directive in (".ilb", ".ob", ".kiss", ".start_kiss", ".end_kiss"):
                continue  # cosmetic directives from PLA-embedded KISS
            else:
                raise FsmError(f"line {lineno}: unknown directive {directive!r}")
            continue
        fields = line.split()
        if num_inputs == 0 and len(fields) == 3:
            # Degenerate input-less machine: "src dst outputs" rows.
            in_pat, (src, dst, out_pat) = "", fields
        elif len(fields) == 4:
            in_pat, src, dst, out_pat = fields
        else:
            raise FsmError(
                f"line {lineno}: expected 'inputs src dst outputs', got {line!r}"
            )
        note_state(src)
        note_state(dst)
        raw_transitions.append((lineno, in_pat, src, dst, out_pat))

    if num_inputs is None or num_outputs is None:
        raise FsmError("KISS text must declare .i and .o")
    if not raw_transitions:
        raise FsmError("KISS text contains no transitions")
    if reset is None:
        reset = raw_transitions[0][2]  # first source state, per SIS convention
    if reset not in seen_states:
        note_state(reset)
    if declared_states is not None and declared_states != len(state_order):
        raise FsmError(
            f".s declares {declared_states} states but "
            f"{len(state_order)} distinct states appear"
        )
    if declared_products is not None and declared_products != len(raw_transitions):
        raise FsmError(
            f".p declares {declared_products} transitions but "
            f"{len(raw_transitions)} appear"
        )

    fsm = FSM(name, num_inputs, num_outputs, state_order, reset)
    for lineno, in_pat, src, dst, out_pat in raw_transitions:
        if len(in_pat) != num_inputs:
            raise FsmError(
                f"line {lineno}: input pattern {in_pat!r} width != .i {num_inputs}"
            )
        if len(out_pat) != num_outputs:
            raise FsmError(
                f"line {lineno}: output pattern {out_pat!r} width != .o {num_outputs}"
            )
        try:
            cube = Cube.from_string(in_pat)
        except ValueError as exc:
            raise FsmError(f"line {lineno}: {exc}") from exc
        try:
            fsm.add_transition(
                Transition(src=src, dst=dst, inputs=cube, outputs=out_pat)
            )
        except FsmError as exc:
            # Bad output characters, conflicting transitions, … — keep
            # the machine-level diagnosis but pin it to the source line.
            raise FsmError(f"line {lineno}: {exc}") from exc
    return fsm


def format_kiss(fsm: FSM) -> str:
    """Serialize ``fsm`` to canonical KISS2 text (computed once per
    machine, see :meth:`~repro.fsm.machine.FSM.fact`)."""
    return fsm.fact("kiss", _render_kiss)


def _render_kiss(fsm: FSM) -> str:
    lines = [
        f".i {fsm.num_inputs}",
        f".o {fsm.num_outputs}",
        f".p {len(fsm.transitions)}",
        f".s {fsm.num_states}",
        f".r {fsm.reset_state}",
    ]
    for t in fsm.transitions:
        if fsm.num_inputs == 0:
            lines.append(f"{t.src} {t.dst} {t.outputs}")
        else:
            lines.append(f"{t.inputs} {t.src} {t.dst} {t.outputs}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


def load_kiss_file(path: Union[str, Path], name: Optional[str] = None) -> FSM:
    """Load a ``.kiss2`` file; the FSM name defaults to the file stem."""
    path = Path(path)
    return parse_kiss(path.read_text(), name=name or path.stem)


def save_kiss_file(fsm: FSM, path: Union[str, Path]) -> None:
    Path(path).write_text(format_kiss(fsm))
