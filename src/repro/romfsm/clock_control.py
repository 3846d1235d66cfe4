"""Idle-state clock control for the ROM implementation (paper section 6).

An FSM cycle is *idle* when neither the state nor the outputs change;
clocking the BRAM through it wastes the (comparatively large) memory
clock energy.  The STG reveals every idle condition statically: each
self-loop whose output equals the currently latched output.  The enable
logic computes::

    EN = NOT  OR over self-loops t of
           (state == t.src) AND (inputs in t.cube) AND (latched_out == t.out)

and drives the BRAM EN pin, which freezes the read — "unlike the gated
clock techniques, this method does not require any external clock gating
and thus is glitch free".

The latched-output comparison is dropped when the outputs live outside
the memory (Moore outputs in LUTs, Fig. 3): freezing the latch then
cannot disturb the outputs, which is the paper's "for a Moore machine
the inputs to the clock control logic are the current state bits and the
inputs to the FSM".  When the outputs are inside the ROM word the
comparison is required for exactness ("in a Mealy machine there can be
conditions when the state does not change but outputs may change").

The control logic is synthesized with the same espresso + LUT-mapping
flow as the FF baseline, giving the Table 4 area-overhead numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.fsm.encoding import StateEncoding
from repro.fsm.machine import FSM
from repro.fsm.transform import complete
from repro.logic.cube import Cover, Cube
from repro.logic.lutmap import LutMapping, map_network
from repro.logic.minimize import espresso
from repro.logic.network import sop_to_network

__all__ = ["ClockControl", "synthesize_clock_control"]

_ESPRESSO_VAR_LIMIT = 16
_ESPRESSO_CUBE_LIMIT = 500


@dataclass(frozen=True)
class ClockControl:
    """Synthesized enable logic for the BRAM clock-stopping technique.

    Frozen because the mapper memoises it: one instance is shared by
    every implementation of the same machine, encoding and options.
    """

    mapping: LutMapping
    encoding: StateEncoding
    num_inputs: int
    num_outputs: int
    compares_outputs: bool
    # Minimized idle condition over (state bits, inputs[, latched
    # outputs]); EN is its complement.  Kept for the VHDL emitter.
    idle_cover: Optional[Cover] = None

    @property
    def num_luts(self) -> int:
        return self.mapping.num_luts

    @property
    def depth(self) -> int:
        return self.mapping.depth

    def evaluate(
        self, state_code: int, input_bits: int, latched_outputs: int
    ) -> int:
        """EN value for the coming clock edge (1 = read proceeds)."""
        values: Dict[str, int] = {}
        for b in range(self.encoding.width):
            values[self.encoding.bit_name(b)] = (state_code >> b) & 1
        for i in range(self.num_inputs):
            values[f"in{i}"] = (input_bits >> i) & 1
        if self.compares_outputs:
            for o in range(self.num_outputs):
                values[f"fb_out{o}"] = (latched_outputs >> o) & 1
        return self.mapping.evaluate(values)["en"]


def _idle_cover(
    fsm: FSM,
    encoding: StateEncoding,
    compares_outputs: bool,
) -> Cover:
    """ON-set of the idle condition over (state bits, inputs[, outputs])."""
    s = encoding.width
    n_inputs = fsm.num_inputs
    n_outputs = fsm.num_outputs if compares_outputs else 0
    n_vars = s + n_inputs + n_outputs
    cover = Cover(n_vars)
    completed = complete(fsm)
    for t in completed.transitions:
        if t.dst != t.src:
            continue
        cube = Cube.full(n_vars)
        code = encoding.encode(t.src)
        for b in range(s):
            bound = cube.restrict_var(b, (code >> b) & 1)
            assert bound is not None
            cube = bound
        for i in range(n_inputs):
            lit = t.inputs.literal(i)
            if lit in "01":
                bound = cube.restrict_var(s + i, int(lit))
                assert bound is not None
                cube = bound
        if compares_outputs:
            resolved = t.resolved_outputs()
            for o in range(fsm.num_outputs):
                bound = cube.restrict_var(s + n_inputs + o, int(resolved[o]))
                assert bound is not None
                cube = bound
        cover.append(cube)
    return cover


def synthesize_clock_control(
    fsm: FSM,
    encoding: StateEncoding,
    outputs_in_rom: bool,
    k: int = 4,
    max_idle_cubes: int = 8,
) -> ClockControl:
    """Build the EN logic for ``fsm`` under ``encoding``.

    Parameters
    ----------
    outputs_in_rom:
        True when the FSM outputs are part of the memory word (freezing
        the latch freezes them), forcing the latched-output comparison.
        False for Moore machines with external output LUTs.
    max_idle_cubes:
        Area/benefit budget: only the ``max_idle_cubes`` widest idle
        cubes are implemented.  *Under*-approximating the idle condition
        is always safe — a missed idle merely clocks the memory
        unnecessarily, it never freezes a live transition — and it is
        what keeps the paper's Table 4 overhead at a handful of LUTs.
        Pass 0 or None for the exact cover.
    """
    compares_outputs = outputs_in_rom and fsm.num_outputs > 0
    idle = _idle_cover(fsm, encoding, compares_outputs)
    if (
        idle.n_vars <= _ESPRESSO_VAR_LIMIT
        and len(idle) <= _ESPRESSO_CUBE_LIMIT
    ):
        idle = espresso(idle)
    else:
        idle = idle.single_cube_containment()
    if max_idle_cubes and len(idle) > max_idle_cubes:
        widest = sorted(idle, key=lambda c: c.num_minterms(), reverse=True)
        idle = Cover(idle.n_vars, widest[:max_idle_cubes])

    input_names = list(encoding.bit_names)
    input_names += [f"in{i}" for i in range(fsm.num_inputs)]
    if compares_outputs:
        input_names += [f"fb_out{o}" for o in range(fsm.num_outputs)]
    network = sop_to_network({"idle": idle}, input_names)
    network.set_output("en", network.not_(network.outputs["idle"]))
    # Drop the helper output so the mapping only exposes EN.
    network.remove_output("idle")
    mapping = map_network(network, k=k)
    return ClockControl(
        mapping=mapping,
        encoding=encoding,
        num_inputs=fsm.num_inputs,
        num_outputs=fsm.num_outputs,
        compares_outputs=compares_outputs,
        idle_cover=idle,
    )
