"""The finite-state-machine model.

The paper (section 4) describes an FSM by the six-tuple ``(I, O, S, r0,
delta, Y)``.  :class:`FSM` stores exactly that, as a state-transition
graph whose edges carry *ternary input cubes* — the format of the MCNC
``.kiss2`` benchmarks the paper evaluates on.  Output patterns may also
contain don't-cares (``-``), which downstream flows resolve to 0 (the
convention SIS applies when it synthesizes the STG to logic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple
from typing import TypeVar

from repro.logic.cube import Cube

__all__ = ["IMAGE_MAX_ENTRIES", "FsmError", "Transition", "FSM", "write_block"]

# The largest machine, in (state, input) pairs, whose image FSM.image()
# tabulates.  Above it, the image's columns step the machine on demand.
# Measured on CPython 3.11 (Xeon, 2 vCPU): a table costs 75-110 ns per
# entry to build, and a lookup saves 270-380 ns over step(), so a table
# of 2**16 entries pays for itself after 15-19k lookups and one of 2**17
# only after ~48k.  A 1000-cycle evaluation reads 27-33k lookups per
# machine and a 2000-cycle Tables 1-4 pass 51-71k, whatever its size.
# The largest paper machine, sand (32 states, 11 inputs), sits at it.
IMAGE_MAX_ENTRIES = 1 << 16


class FsmError(ValueError):
    """Raised for structurally invalid machines or transitions."""


@dataclass(frozen=True)
class Transition:
    """One STG edge: ``src --input_cube / output--> dst``."""

    src: str
    dst: str
    inputs: Cube
    outputs: str  # pattern over {'0','1','-'}, one char per output

    def __post_init__(self) -> None:
        for ch in self.outputs:
            if ch not in "01-":
                raise FsmError(f"invalid output character {ch!r} in {self.outputs!r}")

    def resolved_outputs(self) -> str:
        """Output pattern with don't-cares resolved to '0'."""
        return self.outputs.replace("-", "0")

    def output_bits(self) -> int:
        """Resolved outputs as an int, bit ``i`` = output ``i``."""
        bits = 0
        for i, ch in enumerate(self.resolved_outputs()):
            if ch == "1":
                bits |= 1 << i
        return bits


_Row = Tuple[Tuple[int, int, str, int], ...]
_T = TypeVar("_T")
_E = TypeVar("_E")


def write_block(
    rows: Iterable[Tuple[int, int, _E]], width: int, hold: _E
) -> List[_E]:
    """A table of ``2**width`` entries, written cube by cube.

    Entry ``v`` is the ``entry`` of the first row ``(care, value,
    entry)`` with ``v & care == value``, or ``hold`` when no row
    matches.  Rows are written last first, so the first match wins.
    """
    full = (1 << width) - 1
    block = [hold] * (full + 1)
    for care, value, entry in reversed(list(rows)):
        free = full & ~care
        sub = free
        while True:  # every submask of the free columns
            block[value | sub] = entry
            if not sub:
                break
            sub = (sub - 1) & free
    return block


class _SteppedColumn:
    """One state's image column for a machine above IMAGE_MAX_ENTRIES:
    each lookup steps the machine."""

    __slots__ = ("_step", "_state")

    def __init__(self, fsm: "FSM", state: str):
        self._step = fsm.step
        self._state = state

    def __getitem__(self, input_bits: int) -> Tuple[str, int]:
        return self._step(self._state, input_bits)


class FSM:
    """A Mealy (or Moore-shaped Mealy) finite-state machine.

    Parameters
    ----------
    name:
        Circuit name (benchmark id).
    num_inputs / num_outputs:
        Bit widths of the input and output vectors.
    states:
        Ordered state names; order is meaningful (encoders follow it).
    reset_state:
        Initial state ``r0``; must appear in ``states``.
    transitions:
        STG edges.  Multiple edges may leave a state; their input cubes
        should be disjoint for a deterministic machine (checked by
        :meth:`check_deterministic`).

    ``name``, ``num_inputs``, ``num_outputs``, ``states`` and
    ``reset_state`` are fixed after construction, and transitions are
    only added through :meth:`add_transition`: the machine caches facts
    derived from them (see :meth:`fact`).
    """

    # Per-state compiled transition rows, built by the first step(), and
    # per-machine facts, built by the first fact() call of each name.
    # add_transition() drops both; neither is pickled.  Building is
    # idempotent, so two threads racing on a fresh machine only build
    # twice.
    _rows: Optional[Dict[str, _Row]] = None
    _facts: Optional[Dict[str, Any]] = None

    def __init__(
        self,
        name: str,
        num_inputs: int,
        num_outputs: int,
        states: Sequence[str],
        reset_state: str,
        transitions: Iterable[Transition] = (),
    ):
        if num_inputs < 0 or num_outputs < 0:
            raise FsmError("input/output counts must be non-negative")
        if not states:
            raise FsmError("an FSM needs at least one state")
        if len(set(states)) != len(states):
            raise FsmError("duplicate state names")
        if reset_state not in states:
            raise FsmError(f"reset state {reset_state!r} not in state list")
        self.name = name
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.states: List[str] = list(states)
        self.reset_state = reset_state
        self.transitions: List[Transition] = []
        self._by_src: Dict[str, List[Transition]] = {s: [] for s in self.states}
        for t in transitions:
            self.add_transition(t)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_transition(self, t: Transition) -> None:
        if t.src not in self._by_src:
            raise FsmError(f"unknown source state {t.src!r}")
        if t.dst not in self._by_src:
            raise FsmError(f"unknown destination state {t.dst!r}")
        if t.inputs.n_vars != self.num_inputs:
            raise FsmError(
                f"transition input cube has {t.inputs.n_vars} vars, "
                f"machine has {self.num_inputs} inputs"
            )
        if len(t.outputs) != self.num_outputs:
            raise FsmError(
                f"transition output pattern has {len(t.outputs)} bits, "
                f"machine has {self.num_outputs} outputs"
            )
        self.transitions.append(t)
        self._by_src[t.src].append(t)
        self._rows = None  # recompiled by the next step()
        self._facts = None  # recomputed on the next fact() call

    def add(self, src: str, inputs: str, dst: str, outputs: str) -> None:
        """Shorthand: ``fsm.add('A', '0-', 'B', '1')``."""
        self.add_transition(
            Transition(src=src, dst=dst, inputs=Cube.from_string(inputs),
                       outputs=outputs)
        )

    def copy(self, name: Optional[str] = None) -> "FSM":
        return FSM(
            name or self.name,
            self.num_inputs,
            self.num_outputs,
            self.states,
            self.reset_state,
            self.transitions,
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def input_names(self) -> List[str]:
        return [f"in{i}" for i in range(self.num_inputs)]

    @property
    def output_names(self) -> List[str]:
        return [f"out{i}" for i in range(self.num_outputs)]

    def transitions_from(self, state: str) -> List[Transition]:
        if state not in self._by_src:
            raise FsmError(f"unknown state {state!r}")
        return list(self._by_src[state])

    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise FsmError(f"unknown state {state!r}") from None

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def lookup(self, state: str, input_bits: int) -> Optional[Transition]:
        """The transition taken from ``state`` on ``input_bits``, or None.

        ``input_bits`` packs input ``i`` into bit ``i``.  Returns the
        first matching transition (for a deterministic machine there is
        at most one).  None means the behaviour is unspecified in the
        STG; simulation treats that as a hold (self-loop, outputs 0).
        """
        for t in self._by_src.get(state, ()):
            if t.inputs.contains_minterm(input_bits):
                return t
        return None

    def step(self, state: str, input_bits: int) -> Tuple[str, int]:
        """Next state and resolved output bits (unspecified -> hold, 0).

        Steps per-state rows ``(care_mask, value, dst, output_bits)``: the
        non-empty transitions in :meth:`lookup` order, matching when
        ``input_bits & care_mask == value``.  The rows are built on the
        first call and dropped by :meth:`add_transition`.  Inputs outside
        ``[0, 2**num_inputs)`` and unknown states match nothing.
        """
        rows = self._rows or self._compile_rows()
        row = rows.get(state)
        if row is not None and not input_bits >> self.num_inputs:
            for care, value, dst, out in row:
                if input_bits & care == value:
                    return dst, out
        return state, 0

    def rows(self, state: str) -> Tuple[Tuple[int, int, str, int], ...]:
        """``state``'s step rows ``(care_mask, value, dst, output_bits)``,
        in the first-match order :meth:`step` reads them."""
        rows = self._rows or self._compile_rows()
        try:
            return rows[state]
        except KeyError:
            raise FsmError(f"unknown state {state!r}") from None

    def image(self) -> Dict[str, Sequence[Tuple[str, int]]]:
        """The next-state/output table: ``image()[state][input_bits]``
        is ``step(state, input_bits)`` for every input in range.

        This is the table the paper's section 5 program writes into the
        block RAM before compaction.  Each state's column is a list of
        ``2**num_inputs`` ``(dst, output_bits)`` pairs, written from the
        step rows by :func:`write_block`; a machine of more than
        :data:`IMAGE_MAX_ENTRIES` (state, input) pairs gets columns that
        step on each lookup instead.  Like every fact, the image is built
        once and dropped by :meth:`add_transition`.
        """
        return self.fact("image", FSM._build_image)

    def _build_image(self) -> Dict[str, Sequence[Tuple[str, int]]]:
        if len(self.states) << self.num_inputs > IMAGE_MAX_ENTRIES:
            return {state: _SteppedColumn(self, state) for state in self.states}
        return {
            state: write_block(
                ((care, value, (dst, out))
                 for care, value, dst, out in self.rows(state)),
                self.num_inputs,
                (state, 0),
            )
            for state in self.states
        }

    def _compile_rows(self) -> Dict[str, _Row]:
        rows: Dict[str, _Row] = {}
        for state, outgoing in self._by_src.items():
            compiled = []
            for t in outgoing:
                if t.inputs.is_empty():
                    continue
                care = t.inputs.care_mask()
                compiled.append((care, t.inputs.one_mask & care, t.dst,
                                 t.output_bits()))
            rows[state] = tuple(compiled)
        self._rows = rows
        return rows

    def fact(self, name: str, compute: Callable[["FSM"], _T]) -> _T:
        """``compute(self)``, computed once per machine and ``name``.

        For values derived from the machine alone — its canonical KISS2
        text, :func:`~repro.fsm.markov.stg_fingerprint`,
        :meth:`is_complete`, :meth:`validate`.  :meth:`add_transition`
        forgets every fact.
        """
        facts = self._facts
        if facts is None:
            facts = self._facts = {}
        try:
            return facts[name]
        except KeyError:
            value = facts[name] = compute(self)
            return value

    def __getstate__(self) -> dict:
        # The rows and facts are caches of the transitions: leaving them
        # out keeps a pickled machine byte-identical whether or not it
        # was stepped or inspected.
        state = self.__dict__.copy()
        state.pop("_rows", None)
        state.pop("_facts", None)
        return state

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------

    def check_deterministic(self) -> List[Tuple[Transition, Transition]]:
        """Return pairs of same-source transitions whose cubes overlap.

        Overlapping pairs with identical (dst, outputs) are benign and
        not reported; genuinely conflicting pairs are.
        """
        conflicts: List[Tuple[Transition, Transition]] = []
        for state in self.states:
            outgoing = self._by_src[state]
            for i, a in enumerate(outgoing):
                for b in outgoing[i + 1:]:
                    if a.inputs.intersect(b.inputs) is None:
                        continue
                    if a.dst == b.dst and a.outputs == b.outputs:
                        continue
                    conflicts.append((a, b))
        return conflicts

    def is_deterministic(self) -> bool:
        return not self.check_deterministic()

    def is_complete(self) -> bool:
        """True when every state specifies behaviour for every input."""
        return self.fact("is_complete", FSM._is_complete)

    def _is_complete(self) -> bool:
        from repro.logic.cube import Cover
        from repro.logic.minimize import is_tautology

        for state in self.states:
            cover = Cover(self.num_inputs, (t.inputs for t in self._by_src[state]))
            if not is_tautology(cover):
                return False
        return True

    def is_moore(self) -> bool:
        """True when the output depends only on the current state.

        In STG form that means all transitions *leaving* a given state
        carry the same (resolved) output pattern.  (Equivalently the
        output could be attached to states; the MCNC Moore benchmarks
        are stored this way.)
        """
        for state in self.states:
            outs = {t.resolved_outputs() for t in self._by_src[state]}
            if len(outs) > 1:
                return False
        return True

    def moore_output_of(self, state: str) -> Optional[str]:
        """The state's unique resolved output pattern, if Moore-shaped."""
        outs = {t.resolved_outputs() for t in self._by_src[state]}
        if len(outs) == 1:
            return next(iter(outs))
        if not outs:
            return "0" * self.num_outputs
        return None

    def validate(self) -> None:
        """Raise :class:`FsmError` on structural problems."""
        problem = self.fact("validate", FSM._first_problem)
        if problem is not None:
            raise FsmError(problem)

    def _first_problem(self) -> Optional[str]:
        conflicts = self.check_deterministic()
        if not conflicts:
            return None
        a, b = conflicts[0]
        return (
            f"non-deterministic STG: state {a.src!r} has overlapping "
            f"cubes {a.inputs} and {b.inputs} with different behaviour"
        )

    def __repr__(self) -> str:
        return (
            f"FSM({self.name!r}, i={self.num_inputs}, o={self.num_outputs}, "
            f"s={self.num_states}, p={len(self.transitions)})"
        )
