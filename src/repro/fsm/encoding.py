"""State encodings.

The FF baseline's area and power depend on the state encoding (paper
section 4.1: "The number of FFs used to implement an FSM depends on the
state encoding, such as sequential, one-hot, grey encoding").  The ROM
mapping uses a dense binary encoding so that ``log2(N)`` state bits feed
back from the BRAM data output to its address input.

An encoding is a bijection from state names to codes of a fixed bit
width; :class:`StateEncoding` also provides the decode direction, needed
when reading simulated state-bit traces back into state names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.fsm.machine import FSM, FsmError

__all__ = [
    "StateEncoding",
    "binary_encoding",
    "gray_encoding",
    "one_hot_encoding",
    "johnson_encoding",
    "make_encoding",
    "ENCODING_STYLES",
]


@dataclass(frozen=True)
class StateEncoding:
    """An injective state-name -> code assignment of fixed ``width`` bits."""

    style: str
    width: int
    codes: Dict[str, int]

    def __post_init__(self) -> None:
        if len(set(self.codes.values())) != len(self.codes):
            raise FsmError("state encoding is not injective")
        limit = 1 << self.width
        for state, code in self.codes.items():
            if not 0 <= code < limit:
                raise FsmError(
                    f"code {code:#x} for state {state!r} exceeds width {self.width}"
                )

    def encode(self, state: str) -> int:
        try:
            return self.codes[state]
        except KeyError:
            raise FsmError(f"state {state!r} has no code") from None

    def decode(self, code: int) -> str:
        # Memoised reverse map: decode runs once per simulated cycle, and
        # a linear scan over the states makes it O(states * cycles).
        by_code = self.__dict__.get("_by_code")
        if by_code is None:
            by_code = {c: s for s, c in self.codes.items()}
            object.__setattr__(self, "_by_code", by_code)
        try:
            return by_code[code]
        except KeyError:
            raise FsmError(
                f"code {code:#x} does not decode to any state"
            ) from None

    def has_code(self, code: int) -> bool:
        return any(c == code for c in self.codes.values())

    def encode_bits(self, state: str) -> List[int]:
        """Code as a bit list, bit ``i`` first (LSB-first)."""
        code = self.encode(state)
        return [(code >> i) & 1 for i in range(self.width)]

    def bit_name(self, i: int) -> str:
        return f"state{i}"

    @property
    def bit_names(self) -> List[str]:
        return [self.bit_name(i) for i in range(self.width)]


def _min_width(num_states: int) -> int:
    return max(1, math.ceil(math.log2(num_states))) if num_states > 1 else 1


def binary_encoding(fsm: FSM, reset_code: int = 0) -> StateEncoding:
    """Dense sequential (binary) encoding, reset state first.

    The reset state gets ``reset_code`` (default 0) because the paper's
    BRAM mapping relies on the memory's latched outputs clearing to zero
    on reset, which must address the initial state (section 4.2).
    """
    width = _min_width(fsm.num_states)
    if reset_code >= (1 << width):
        raise FsmError("reset code does not fit the minimal width")
    codes: Dict[str, int] = {fsm.reset_state: reset_code}
    next_code = 0
    for state in fsm.states:
        if state == fsm.reset_state:
            continue
        while next_code == reset_code or next_code in codes.values():
            next_code += 1
        codes[state] = next_code
        next_code += 1
    return StateEncoding("binary", width, codes)


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def gray_encoding(fsm: FSM) -> StateEncoding:
    """Gray-sequence encoding in state order, reset state first."""
    width = _min_width(fsm.num_states)
    order = [fsm.reset_state] + [s for s in fsm.states if s != fsm.reset_state]
    codes = {state: _gray(i) for i, state in enumerate(order)}
    return StateEncoding("gray", width, codes)


def one_hot_encoding(fsm: FSM) -> StateEncoding:
    """One FF per state; reset state gets bit 0."""
    order = [fsm.reset_state] + [s for s in fsm.states if s != fsm.reset_state]
    codes = {state: 1 << i for i, state in enumerate(order)}
    return StateEncoding("one-hot", fsm.num_states, codes)


def johnson_encoding(fsm: FSM) -> StateEncoding:
    """Johnson (twisted-ring) counter encoding.

    Width ceil(N/2) supports up to 2*width distinct codes; states beyond
    the ring length would collide, so the width grows as needed.
    """
    n = fsm.num_states
    width = max(1, math.ceil(n / 2))
    order = [fsm.reset_state] + [s for s in fsm.states if s != fsm.reset_state]
    codes: Dict[str, int] = {}
    value = 0
    for state in order:
        codes[state] = value
        # Shift in the complement of the MSB (LSB-first storage: shift
        # left, new LSB = complement of old bit width-1).
        msb = (value >> (width - 1)) & 1
        value = ((value << 1) | (msb ^ 1)) & ((1 << width) - 1)
    return StateEncoding("johnson", width, codes)


ENCODING_STYLES = {
    "binary": binary_encoding,
    "gray": gray_encoding,
    "one-hot": one_hot_encoding,
    "johnson": johnson_encoding,
}


def make_encoding(fsm: FSM, style: str = "binary") -> StateEncoding:
    """Build an encoding by style name (see :data:`ENCODING_STYLES`)."""
    try:
        factory = ENCODING_STYLES[style]
    except KeyError:
        raise FsmError(
            f"unknown encoding style {style!r}; "
            f"choose from {sorted(ENCODING_STYLES)}"
        ) from None
    return factory(fsm)
