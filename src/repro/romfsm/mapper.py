"""The Fig. 5 mapping algorithm: FSM -> embedded memory blocks.

Decision order follows the paper exactly:

1. Encode each state (dense binary, reset at code 0), ``s`` bits.
2. If ``I + s`` address lines are available in some BRAM configuration:
   a single block when ``O + s`` also fits the data port, otherwise
   blocks joined **in parallel** on the same address lines until the
   combined width carries the word (Fig. 5 lines 2-9).
3. Otherwise compute ``i``, the maximum number of non-don't-care inputs
   any state uses; if ``i + s`` fits, apply **column compaction** with a
   per-state input multiplexer (lines 11-14, Fig. 4).
4. As the last resort join blocks **in series** to widen the address
   space (lines 16-18); the paper notes this costs power, which is why
   the multiplexer path is preferred.

Two engineering options orthogonal to the core algorithm:

* ``moore_outputs`` — realize a Moore machine's output function in LUTs
  outside the memory (Fig. 3), shrinking the word to the state code.
* ``clock_control`` — add the §6 idle-state enable logic.

The mapping runs in two steps.  :func:`plan_rom_mapping` makes every
decision above and raises every :class:`MappingError`; its
:class:`RomMappingPlan` is a small record with a hashable ``key``.
:func:`build_rom_mapping` then produces what the plan describes: the
memory contents, the multiplexer, the Moore output LUTs and the clock
control.  :func:`map_fsm_to_rom` is the two in sequence.  The tuner
plans every candidate and builds once per distinct key.

The two auxiliary LUT networks -- the Fig. 4 input multiplexer and the
§6 enable logic -- are pure functions of the machine, its state codes
and ``k``, so they are memoised by content (:func:`clear_aux_logic_cache`
resets the memo).  Implementations share the memoised ``LutMapping`` and
``ClockControl`` objects and must only read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

from repro.arch.bram import BramConfig
from repro.arch.memblock import VIRTEX2_BRAM
from repro.fsm.encoding import StateEncoding, binary_encoding
from repro.fsm.machine import FSM, FsmError
from repro.fsm.markov import stg_fingerprint
from repro.logic.lutmap import LutMapping, map_truth_tables
from repro.logic.truthtable import TruthTable
from repro.romfsm.clock_control import ClockControl, synthesize_clock_control
from repro.romfsm.compaction import ColumnCompaction, compact_columns
from repro.romfsm.contents import RomLayout, generate_contents
from repro.romfsm.impl import RomFsmImplementation

__all__ = [
    "MappingError",
    "RomMappingPlan",
    "build_rom_mapping",
    "clear_aux_logic_cache",
    "map_fsm_to_rom",
    "plan_rom_mapping",
    "resolve_rom_encoding",
    "synthesize_moore_outputs",
]


class MappingError(FsmError):
    """Raised when no legal BRAM mapping exists under the given options."""


# Content-keyed memos of the auxiliary LUT networks.  A tuner search
# maps hundreds of candidates that differ only in options the networks
# do not depend on (Moore mode, aspect, clock control), so each distinct
# network is synthesized once per process.
_MUX_CACHE: Dict[tuple, LutMapping] = {}
_CLOCK_CONTROL_CACHE: Dict[tuple, ClockControl] = {}
_AUX_LOGIC_CACHE_MAX = 256

_T = TypeVar("_T")


def clear_aux_logic_cache() -> None:
    """Forget every memoised input multiplexer and clock-control network."""
    _MUX_CACHE.clear()
    _CLOCK_CONTROL_CACHE.clear()


def _encoding_key(encoding: StateEncoding) -> Tuple:
    # The style is part of the key: ClockControl embeds the encoding, so
    # equal codes under another style must not share an entry.
    return (encoding.style, encoding.width, tuple(encoding.codes.items()))


def _memoised(
    cache: Dict[tuple, _T], key: tuple, build: Callable[[], _T]
) -> _T:
    value = cache.get(key)
    if value is None:
        value = build()
        if len(cache) >= _AUX_LOGIC_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[key] = value
    return value


def _mux_mapping(
    compaction: ColumnCompaction, encoding: StateEncoding, k: int
) -> LutMapping:
    key = (
        tuple(compaction.state_columns.items()),
        compaction.width,
        compaction.num_inputs,
        _encoding_key(encoding),
        k,
    )
    return _memoised(
        _MUX_CACHE, key, lambda: compaction.build_mux_network(encoding, k=k)
    )


def _clock_control(
    fsm: FSM,
    encoding: StateEncoding,
    outputs_in_rom: bool,
    k: int,
    max_idle_cubes: int,
) -> ClockControl:
    key = (
        stg_fingerprint(fsm),
        _encoding_key(encoding),
        outputs_in_rom,
        k,
        max_idle_cubes,
    )
    return _memoised(
        _CLOCK_CONTROL_CACHE, key,
        lambda: synthesize_clock_control(
            fsm, encoding, outputs_in_rom=outputs_in_rom, k=k,
            max_idle_cubes=max_idle_cubes,
        ),
    )


def synthesize_moore_outputs(
    fsm: FSM, encoding: StateEncoding, k: int = 4
) -> LutMapping:
    """LUT logic computing a Moore machine's outputs from the state bits.

    Paper Fig. 3: "the state bits coming out of the EMBs can be used to
    implement the output function external to an EMB."
    """
    if not fsm.is_moore():
        raise MappingError(
            "external output LUTs need a Moore machine; transform with "
            "mealy_to_moore() first (paper cites Kohavi for this step)"
        )
    s = encoding.width
    pattern_of_code: dict = {}
    for state in fsm.states:
        pattern = fsm.moore_output_of(state)
        assert pattern is not None
        pattern_of_code[encoding.encode(state)] = pattern
    input_names = tuple(encoding.bit_names)
    functions = {}
    for o in range(fsm.num_outputs):
        bits = 0
        for code in range(1 << s):
            pattern = pattern_of_code.get(code)
            if pattern is not None and pattern[o] == "1":
                bits |= 1 << code
        functions[f"out{o}"] = (input_names, TruthTable(s, bits))
    return map_truth_tables(functions, k=k)


def resolve_rom_encoding(
    fsm: FSM, encoding: Union[None, str, StateEncoding]
) -> StateEncoding:
    """The state assignment the ROM image is generated under.

    ``None`` keeps the paper's dense binary encoding.  A string names a
    pluggable strategy (:mod:`repro.fsm.assign`); a ready
    :class:`StateEncoding` is validated.  Either way the result must be
    *dense* (minimal binary width — every extra bit doubles the address
    space) with the reset state at code 0 (the memory's latched outputs
    clear to zero on reset, paper §4.2).
    """
    if encoding is None:
        return binary_encoding(fsm, reset_code=0)
    if isinstance(encoding, str):
        from repro.fsm.assign import make_strategy_encoding

        try:
            resolved = make_strategy_encoding(fsm, encoding)
        except FsmError as exc:
            raise MappingError(str(exc)) from None
    else:
        resolved = encoding
    minimal = binary_encoding(fsm, reset_code=0).width
    if resolved.width != minimal:
        raise MappingError(
            f"{fsm.name}: ROM state assignment {resolved.style!r} is "
            f"{resolved.width} bits wide; the mapping needs the minimal "
            f"{minimal} (every extra state bit doubles the address space)"
        )
    if resolved.encode(fsm.reset_state) != 0:
        raise MappingError(
            f"{fsm.name}: ROM state assignment must place the reset "
            f"state at code 0 (cleared-latch reset convention)"
        )
    return resolved


@dataclass(frozen=True)
class RomMappingPlan:
    """Every Fig. 5 decision for one machine, made before anything is built.

    :func:`plan_rom_mapping` makes these decisions (and raises every
    :class:`MappingError`); :func:`build_rom_mapping` turns a plan into
    an implementation without deciding anything.  ``machine`` is the
    planned machine's :func:`~repro.fsm.markov.stg_fingerprint`.
    """

    machine: str
    encoding: StateEncoding
    layout: RomLayout
    config: BramConfig
    parallel_brams: int
    series_brams: int
    compaction: Optional[ColumnCompaction]
    external_moore: bool
    clock_control: bool
    k: int
    max_idle_cubes: int

    @property
    def key(self) -> Tuple:
        """Hashable identity of the implementation this plan builds:
        two plans with equal keys build implementations with equal
        fingerprints.  ``k`` counts only when some LUT logic is built,
        ``max_idle_cubes`` only with clock control."""
        compaction = self.compaction
        has_luts = (
            compaction is not None or self.external_moore or self.clock_control
        )
        return (
            self.machine,
            _encoding_key(self.encoding),
            self.layout,
            self.config,
            self.parallel_brams,
            self.series_brams,
            None if compaction is None else (
                compaction.width, tuple(compaction.state_columns.items())
            ),
            self.external_moore,
            self.max_idle_cubes if self.clock_control else None,
            self.k if has_luts else None,
        )


def plan_rom_mapping(
    fsm: FSM,
    k: int = 4,
    moore_outputs: str = "auto",
    clock_control: bool = False,
    force_compaction: bool = False,
    max_idle_cubes: int = 8,
    encoding: Union[None, str, StateEncoding] = None,
    aspect: Optional[str] = None,
) -> RomMappingPlan:
    """Make the Fig. 5 decisions for ``fsm``; see :func:`map_fsm_to_rom`
    for the options.  Raises :class:`MappingError` when no legal mapping
    exists."""
    if moore_outputs not in ("auto", "external", "internal"):
        raise ValueError(f"bad moore_outputs option {moore_outputs!r}")
    mem = VIRTEX2_BRAM
    fsm.validate()
    forced: Optional[BramConfig] = None
    if aspect is not None:
        for config in mem.configs:
            if config.name == aspect:
                forced = config
                break
        else:
            names = ", ".join(c.name for c in mem.configs)
            raise MappingError(
                f"{fsm.name}: {mem.name} offers no aspect ratio named "
                f"{aspect!r} (choose from {names})"
            )
    encoding = resolve_rom_encoding(fsm, encoding)
    s = encoding.width
    num_inputs = fsm.num_inputs
    num_outputs = fsm.num_outputs

    use_external = moore_outputs == "external"
    if use_external and not fsm.is_moore():
        raise MappingError("moore_outputs='external' requires a Moore machine")
    if use_external and not fsm.is_complete():
        raise MappingError(
            "external Moore outputs require a complete machine: on "
            "unspecified inputs the hold convention outputs 0, which a "
            "state-driven output LUT cannot reproduce"
        )

    def data_bits(external: bool) -> int:
        return s if external else s + num_outputs

    candidate_compaction = compact_columns(fsm)

    # Moore auto-externalization (the prep4 case, Fig. 3): move the
    # output function into LUTs when that lets fewer memory blocks carry
    # the machine -- either because the full word exceeds every data
    # port, or because the narrower state-only word avoids a parallel
    # lane ("instantiating more EMB increases the power consumption").
    if (
        moore_outputs == "auto"
        and not use_external
        and fsm.is_moore()
        and fsm.is_complete()
    ):
        best_addr = s + min(num_inputs, candidate_compaction.width)
        lane_width = max(
            (c.width for c in mem.configs
             if c.addr_bits >= min(best_addr, mem.max_addr_bits)),
            default=mem.max_data_bits,
        )
        internal_lanes = -(-data_bits(False) // lane_width)
        external_lanes = -(-data_bits(True) // lane_width)
        # Externalize when it saves a whole lane, or when the output
        # field would dwarf the state field (wide-output controllers
        # like prep4: a narrow state-only word exercises far fewer bit
        # lines, and the state->output decode is cheap in LUTs).
        if external_lanes < internal_lanes or num_outputs > s:
            use_external = True

    width_needed = data_bits(use_external)

    def lanes(addr_bits: int):
        """(config, parallel, series) lanes for an address/width demand."""
        if forced is not None:
            # A pinned aspect ratio answers its own series question: one
            # cascaded block per address bit beyond the shape's depth.
            if addr_bits > forced.addr_bits:
                series = 1 << (addr_bits - forced.addr_bits)
            else:
                series = 1
            parallel = -(-width_needed // forced.width)
            return forced, parallel, series
        # Fig. 5 lines 16-18: series joining grows the address space.
        series, lane_addr = mem.series_for(addr_bits)
        config = mem.select_config(
            lane_addr, min(width_needed, mem.max_data_bits)
        )
        if config is None:
            # No single aspect ratio offers both; take the widest one
            # with enough address lines and join lanes in parallel.
            config = mem.widest_config(lane_addr)
            if config is None:
                return None
        parallel = -(-width_needed // config.width)  # ceil division
        return config, parallel, series

    # --- Fig. 5: plan without compaction, then with (lines 11-14); the
    # compacted plan wins when it needs fewer blocks, because "a
    # multiplexer can be used to implement an FSM with fewer EMB ...
    # advantageous for power savings, as instantiating more EMB
    # increases the power consumption".
    compaction: Optional[ColumnCompaction] = None
    input_bits = num_inputs
    raw_plan = lanes(num_inputs + s)
    chosen = raw_plan
    if candidate_compaction.saves_bits or force_compaction:
        compact_plan = lanes(candidate_compaction.width + s)
        take_compacted = force_compaction
        if compact_plan is not None and raw_plan is not None and not take_compacted:
            fewer_brams = (
                compact_plan[1] * compact_plan[2] < raw_plan[1] * raw_plan[2]
            )
            # Power policy: even at equal block count, compacting away
            # two or more address bits quarters the exercised word lines
            # ("Power consumed by the blockram is dependent upon the
            # number of word-lines used"), which outweighs the small
            # input multiplexer.
            many_fewer_lines = (
                num_inputs - candidate_compaction.width >= 2
            )
            take_compacted = fewer_brams or many_fewer_lines
        if raw_plan is None:
            take_compacted = compact_plan is not None
        if take_compacted and compact_plan is not None:
            compaction = candidate_compaction
            input_bits = compaction.width
            chosen = compact_plan
    if chosen is None:
        raise MappingError(
            f"{fsm.name}: no {mem.name} configuration offers "
            f"{input_bits + s} address lines even after compaction"
        )
    config, parallel, series = chosen
    if not mem.legal_series(series):
        raise MappingError(
            f"{fsm.name}: {input_bits + s} address bits need {series} "
            f"blocks in series (> {mem.max_series}); FSM too wide for "
            f"the {mem.name} ROM approach"
        )

    return RomMappingPlan(
        machine=stg_fingerprint(fsm),
        encoding=encoding,
        layout=RomLayout(
            input_bits=input_bits,
            state_bits=s,
            output_bits=0 if use_external else num_outputs,
        ),
        config=config,
        parallel_brams=parallel,
        series_brams=series,
        compaction=compaction,
        external_moore=use_external,
        clock_control=clock_control,
        k=k,
        max_idle_cubes=max_idle_cubes,
    )


def build_rom_mapping(fsm: FSM, plan: RomMappingPlan) -> RomFsmImplementation:
    """Build the implementation ``plan`` describes: the memory contents,
    the Fig. 4 input multiplexer, the Fig. 3 Moore output LUTs and the
    §6 clock control.  ``plan`` must come from :func:`plan_rom_mapping`
    on this machine."""
    if stg_fingerprint(fsm) != plan.machine:
        raise ValueError(f"{fsm.name}: the plan was made for another machine")
    encoding = plan.encoding
    compaction = plan.compaction
    impl = RomFsmImplementation(
        fsm=fsm,
        encoding=encoding,
        layout=plan.layout,
        config=plan.config,
        contents=generate_contents(fsm, encoding, plan.layout, compaction),
        parallel_brams=plan.parallel_brams,
        series_brams=plan.series_brams,
        compaction=compaction,
        mux_mapping=(
            _mux_mapping(compaction, encoding, plan.k)
            if compaction is not None else None
        ),
        moore_output_mapping=(
            synthesize_moore_outputs(fsm, encoding, k=plan.k)
            if plan.external_moore else None
        ),
    )
    if plan.clock_control:
        impl.clock_control = _clock_control(
            fsm, encoding, not plan.external_moore, plan.k,
            plan.max_idle_cubes,
        )
    return impl


def map_fsm_to_rom(
    fsm: FSM,
    k: int = 4,
    moore_outputs: str = "auto",
    clock_control: bool = False,
    force_compaction: bool = False,
    max_idle_cubes: int = 8,
    encoding: Union[None, str, StateEncoding] = None,
    aspect: Optional[str] = None,
) -> RomFsmImplementation:
    """Map ``fsm`` into embedded memory blocks per the paper's algorithm.

    Parameters
    ----------
    fsm:
        A deterministic machine (validated); completeness is not
        required — unspecified behaviour is programmed as hold/zero.
    k:
        LUT size for any auxiliary logic (mux, Moore outputs, enable).
    moore_outputs:
        ``"auto"`` (external only when the word cannot fit any parallel
        combination), ``"external"`` (force Fig. 3; requires a complete
        Moore machine) or ``"internal"``.
    clock_control:
        Add the §6 idle-state enable logic.
    force_compaction:
        Apply column compaction even when the raw inputs fit (ablation
        hook; the paper compacts only when necessary).
    max_idle_cubes:
        Clock-control area budget (see
        :func:`repro.romfsm.clock_control.synthesize_clock_control`).
    encoding:
        ROM state assignment: ``None`` for the paper's dense binary, a
        strategy name (see :mod:`repro.fsm.assign`), or a ready
        :class:`StateEncoding`.  Must be dense with reset at code 0
        (validated) — the assignment changes which address/data lines
        toggle, not the mapping legality.
    aspect:
        Pin the block aspect ratio to one named Virtex-II configuration
        (e.g. ``"512x36"``) instead of the widest-fit policy; raises
        :class:`MappingError` when the machine cannot fit that shape.

    Returns
    -------
    RomFsmImplementation
    """
    return build_rom_mapping(fsm, plan_rom_mapping(
        fsm, k=k, moore_outputs=moore_outputs, clock_control=clock_control,
        force_compaction=force_compaction, max_idle_cubes=max_idle_cubes,
        encoding=encoding, aspect=aspect,
    ))
