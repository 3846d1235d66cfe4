"""Synthesis of the conventional FF + LUT FSM implementation.

Pipeline (mirroring the paper's SIS -> blif -> Synplify -> mapped flow):

1. *Complete* the STG with hold/zero self-loops so the hardware's
   behaviour on unspecified (state, input) pairs matches the reference
   simulation semantics exactly.
2. Encode the states (binary/gray/one-hot/johnson; paper §4.1).
3. Express every next-state bit and every output bit as an SOP cover
   over (state bits, inputs); unused state codes and don't-care outputs
   become the don't-care set.
4. Minimize each cover with the espresso-style minimizer.
5. Factor the covers into one shared gate network and map it onto
   4-LUTs.

The resulting :class:`FfImplementation` carries everything the area,
timing and power models need: the LUT netlist with truth tables and
levels and the FF count.  :func:`repro.synth.netsim.simulate_ff_netlist`
simulates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.arch.device import Utilization
from repro.fsm.encoding import StateEncoding, make_encoding
from repro.fsm.machine import FSM, FsmError
from repro.fsm.transform import complete
from repro.logic.cube import Cover, Cube
from repro.logic.lutmap import LutMapping, map_network
from repro.logic.minimize import espresso
from repro.logic.network import sop_to_network

__all__ = ["FfImplementation", "synthesize_ff"]

# espresso cost guard: beyond this many variables or cubes the heuristic
# loop is skipped in favour of single-cube containment (matching how a
# production flow falls back on fast extraction for very wide functions).
_ESPRESSO_VAR_LIMIT = 16
_ESPRESSO_CUBE_LIMIT = 500


@dataclass
class FfImplementation:
    """The mapped FF/LUT implementation of one FSM."""

    fsm: FSM
    encoding: StateEncoding
    mapping: LutMapping
    k: int

    @property
    def num_luts(self) -> int:
        return self.mapping.num_luts

    @property
    def num_ffs(self) -> int:
        return self.encoding.width

    @property
    def lut_depth(self) -> int:
        return self.mapping.depth

    @property
    def utilization(self) -> Utilization:
        return Utilization(luts=self.num_luts, ffs=self.num_ffs, brams=0)

    @property
    def state_bit_names(self) -> List[str]:
        return self.encoding.bit_names

    @property
    def next_state_names(self) -> List[str]:
        return [f"ns{i}" for i in range(self.encoding.width)]


def _state_cube(encoding: StateEncoding, state: str, n_vars: int,
                input_offset: int) -> Cube:
    """Cube binding the state-bit variables to the state's code.

    For one-hot encodings only the hot bit is bound (=1); the cold bits
    are left as don't-cares, the classical one-hot simplification (legal
    because only one-hot codes are reachable).
    """
    cube = Cube.full(n_vars)
    code = encoding.encode(state)
    if encoding.style == "one-hot":
        hot = code.bit_length() - 1
        bound = cube.restrict_var(hot, 1)
        assert bound is not None
        return bound
    for bit in range(encoding.width):
        bound = cube.restrict_var(bit, (code >> bit) & 1)
        assert bound is not None
        cube = bound
    return cube


def _lift_input_cube(cube: Cube, n_vars: int, offset: int) -> Cube:
    """Embed an input cube into the wider (state bits + inputs) space."""
    full = (1 << n_vars) - 1
    zero = full & ~(((1 << cube.n_vars) - 1) << offset) | (cube.zero_mask << offset)
    one = full & ~(((1 << cube.n_vars) - 1) << offset) | (cube.one_mask << offset)
    return Cube(n_vars, zero, one)


def _unused_code_dc(encoding: StateEncoding, n_vars: int) -> List[Cube]:
    """Don't-care cubes for state codes no state uses (dense encodings).

    Skipped for one-hot/johnson where enumerating the unused space is
    exponential; those flows rely on the hot-bit simplification instead.
    """
    if encoding.style not in ("binary", "gray", "annealed"):
        return []
    used = {code for code in encoding.codes.values()}
    cubes: List[Cube] = []
    for code in range(1 << encoding.width):
        if code in used:
            continue
        cube = Cube.full(n_vars)
        for bit in range(encoding.width):
            bound = cube.restrict_var(bit, (code >> bit) & 1)
            assert bound is not None
            cube = bound
        cubes.append(cube)
    return cubes


def _maybe_minimize(on: Cover, dc: Cover) -> Cover:
    """Run espresso unless the function is too wide/large for the budget."""
    if on.n_vars > _ESPRESSO_VAR_LIMIT:
        return on.single_cube_containment()
    if len(on) + len(dc) > _ESPRESSO_CUBE_LIMIT:
        return on.single_cube_containment()
    return espresso(on, dc)


def synthesize_ff(
    fsm: FSM,
    encoding_style: str = "binary",
    k: int = 4,
    minimize: bool = True,
) -> FfImplementation:
    """Synthesize the conventional FF/LUT implementation of ``fsm``.

    Parameters
    ----------
    fsm:
        The machine (need not be complete; hold/zero completion is
        applied internally so hardware matches simulation semantics).
    encoding_style:
        One of ``binary``, ``gray``, ``one-hot``, ``johnson`` — or a
        ready :class:`~repro.fsm.encoding.StateEncoding` instance (e.g.
        from :func:`repro.fsm.assign.anneal_encoding`).
    k:
        LUT input count (4 for Virtex-II).
    minimize:
        Disable to skip two-level minimization (ablation hook).
    """
    fsm.validate()
    completed = complete(fsm)
    if isinstance(encoding_style, StateEncoding):
        encoding = encoding_style
        missing = set(fsm.states) - set(encoding.codes)
        if missing:
            raise FsmError(f"encoding lacks codes for states {sorted(missing)}")
    else:
        encoding = make_encoding(fsm, encoding_style)
    s = encoding.width
    n_vars = s + fsm.num_inputs

    next_state_on: List[Cover] = [Cover(n_vars) for _ in range(s)]
    output_on: List[Cover] = [Cover(n_vars) for _ in range(fsm.num_outputs)]

    for t in completed.transitions:
        state_part = _state_cube(encoding, t.src, n_vars, s)
        input_part = _lift_input_cube(t.inputs, n_vars, s)
        cube = state_part.intersect(input_part)
        if cube is None:  # cannot happen: disjoint variable ranges
            continue
        dst_code = encoding.encode(t.dst)
        for bit in range(s):
            if (dst_code >> bit) & 1:
                next_state_on[bit].append(cube)
        # Output don't-cares are resolved to 0 (the convention shared by
        # the reference simulator and the ROM content generator) so every
        # implementation produces bit-identical output streams.
        for bit, ch in enumerate(t.resolved_outputs()):
            if ch == "1":
                output_on[bit].append(cube)

    shared_dc = _unused_code_dc(encoding, n_vars)

    covers: Dict[str, Cover] = {}
    for bit in range(s):
        dc = Cover(n_vars, shared_dc)
        on = next_state_on[bit]
        covers[f"ns{bit}"] = _maybe_minimize(on, dc) if minimize else (
            on.single_cube_containment()
        )
    for bit in range(fsm.num_outputs):
        dc = Cover(n_vars, shared_dc)
        on = output_on[bit]
        covers[f"out{bit}"] = _maybe_minimize(on, dc) if minimize else (
            on.single_cube_containment()
        )

    input_names = encoding.bit_names + [f"in{i}" for i in range(fsm.num_inputs)]
    network = sop_to_network(covers, input_names)
    mapping = map_network(network, k=k)
    return FfImplementation(fsm=fsm, encoding=encoding, mapping=mapping, k=k)
