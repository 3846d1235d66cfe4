"""Per-netlist code generation for the word-parallel simulator.

:func:`repro.synth.wordsim.evaluate_mapping_words` interprets a mapped
netlist dict-by-dict: one Python loop iteration and one
:meth:`~repro.logic.truthtable.TruthTable.evaluate_word` call per LUT
per evaluation.  This module compiles each
:class:`~repro.logic.lutmap.LutMapping` **once** into a straight-line
Python function of bitwise big-int operations:

- nets are emitted in the mapping's topological order, one local
  variable per net;
- each K-LUT becomes its masked sum-of-products expression, expanded
  over whichever polarity of the truth table has fewer minterms (the
  same trick ``evaluate_word`` applies at run time, burned into the
  source instead);
- complemented literals are hoisted — ``v ^ mask`` is computed at most
  once per net, not once per appearance.

The generated function returns exactly the net dictionary
``evaluate_mapping_words`` returns (which stays as the reference the
compiler is tested against), so every downstream consumer (toggle
counting, verification, activity extraction) is unchanged.

Compilations are memoized per object (``id`` + weakref, so repeated
runs of one implementation never re-fingerprint) and per fingerprint
(structurally identical netlists share one code object).  The
fingerprint memo is an LRU capped at :data:`MEMO_MAX_ENTRIES`, so a
long-lived service worker that sees a stream of fresh machines keeps a
bounded set of compilations.

Contract with the callers (:func:`repro.synth.netsim.simulate_ff_netlist`,
:meth:`repro.romfsm.impl.RomFsmImplementation.run`): they verify the
word-parallel result against the netlist's own next-state words / the
actual ROM words and raise at the first disagreement.  Any failure
*inside* codegen (generation, compilation, execution) propagates to
them and on to their callers; there is no second evaluator to fall
back to.

The ROM replay loop gets the same treatment: :func:`compiled_replay`
emits a verification function specialized to the ROM word layout
(output field width burned in as a literal), replacing the per-cycle
Python loop with a list compare on the always-enabled path and
packed-word latch checks plus sparse set-bit iteration when clock
control gates the port.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.logic.lutmap import GND_NET, VCC_NET, LutMapping
from repro.synth.wordsim import pack_bit_column, popcount

__all__ = [
    "MEMO_MAX_ENTRIES",
    "CodegenStats",
    "CompiledMapping",
    "compile_mapping",
    "compiled_replay",
    "evaluate_words",
    "generate_source",
    "mapping_fingerprint",
    "pack_bit_columns",
    "reset_stats",
    "stats",
]

# Compilations kept by the per-fingerprint LRU.  Each entry holds the
# generated source and its code object (tens of KB for a typical
# netlist), so the cap bounds a long-lived worker's memory.
MEMO_MAX_ENTRIES = 256

_FN_NAME = "_netfn"
_REPLAY_NAME = "_replay"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


@dataclass
class CodegenStats:
    """Process-wide codegen counters (monotonic since start or reset).

    Nothing increments ``fallbacks``: a codegen failure propagates
    instead of falling back to a per-cycle evaluator.  The field stays
    only because the benchmark harness reads it as ``synth.fallbacks``.
    """

    compiles: int = 0
    memo_hits: int = 0
    fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_stats = CodegenStats()
_lock = threading.Lock()


def stats() -> CodegenStats:
    """A snapshot copy of the process-wide counters."""
    return CodegenStats(**_stats.as_dict())


def reset_stats() -> None:
    global _stats
    _stats = CodegenStats()


# ----------------------------------------------------------------------
# Source generation
# ----------------------------------------------------------------------


def generate_source(mapping: LutMapping) -> str:
    """Emit the straight-line evaluator source for ``mapping``.

    The function takes ``(W, mask)`` — the input-word dict and the cycle
    mask — and returns the full net dict, exactly like
    :func:`~repro.synth.wordsim.evaluate_mapping_words` (input presence
    is checked by the caller so the error contract stays shared).
    """
    names: Dict[str, str] = {}

    def name_of(net: str) -> str:
        var = names.get(net)
        if var is None:
            var = f"v{len(names)}"
            names[net] = var
        return var

    gnd = name_of(GND_NET)
    vcc = name_of(VCC_NET)
    for net in mapping.input_nets:
        name_of(net)

    # Pass 1: plan every LUT (polarity, minterms) and collect the nets
    # whose complement some expression reads, so negations are hoisted.
    plans: List[Tuple[str, object]] = []
    negated: set = set()
    for lut in mapping.luts:
        bits = lut.table.bits
        size = 1 << lut.table.n_inputs
        full = (1 << size) - 1
        if bits == 0:
            plans.append((lut.name, "0"))
            continue
        if bits == full:
            plans.append((lut.name, "mask"))
            continue
        invert = popcount(bits) > size // 2
        if invert:
            bits ^= full
        minterms: List[int] = []
        while bits:
            low = bits & -bits
            bits ^= low
            minterms.append(low.bit_length() - 1)
        for m in minterms:
            for i, src in enumerate(lut.input_nets):
                if not (m >> i) & 1:
                    negated.add(src)
        plans.append((lut.name, (invert, minterms, lut.input_nets)))

    def neg_of(var: str) -> str:
        return "n" + var[1:]

    lines: List[str] = [f"def {_FN_NAME}(W, mask):"]

    def define(net: str, expr: str) -> None:
        var = names[net]
        lines.append(f"    {var} = {expr}")
        if net in negated:
            lines.append(f"    {neg_of(var)} = {var} ^ mask")

    define(GND_NET, "0")
    define(VCC_NET, "mask")
    for net in mapping.input_nets:
        define(net, f"W[{net!r}] & mask")

    for lut_name, plan in plans:
        name_of(lut_name)
        if isinstance(plan, str):
            define(lut_name, plan)
            continue
        invert, minterms, input_nets = plan
        terms: List[str] = []
        for m in minterms:
            literals = []
            for i, src in enumerate(input_nets):
                var = names[src]
                literals.append(var if (m >> i) & 1 else neg_of(var))
            terms.append(" & ".join(literals))
        expr = " | ".join(terms)
        if invert:
            expr = f"({expr}) ^ mask"
        define(lut_name, expr)

    items = ", ".join(f"{net!r}: {var}" for net, var in names.items())
    lines.append(f"    return {{{items}}}")
    lines.append("")
    return "\n".join(lines)


# Generated code gets no ambient builtins — only the callables the
# templates actually emit (the netlist functions are pure bitwise and
# use none; the replay verifier iterates with len/range).
_SAFE_BUILTINS = {"len": len, "range": range}


def _compile_source(source: str, fn_name: str) -> Callable:
    code = compile(source, "<romfsm-codegen>", "exec")
    namespace: Dict[str, object] = {"__builtins__": _SAFE_BUILTINS}
    exec(code, namespace)
    fn = namespace[fn_name]
    if not callable(fn):  # pragma: no cover - generator bug
        raise TypeError(f"generated object {fn_name!r} is not callable")
    return fn


# ----------------------------------------------------------------------
# Compilation caches
# ----------------------------------------------------------------------


@dataclass
class CompiledMapping:
    """A compiled netlist evaluator plus its provenance."""

    fingerprint: str
    source: str
    fn: Callable[[Dict[str, int], int], Dict[str, int]]
    input_nets: Tuple[str, ...]

    def __call__(self, input_words: Dict[str, int], mask: int) -> Dict[str, int]:
        for name in self.input_nets:
            if name not in input_words:
                raise KeyError(f"missing word for input {name!r}")
        return self.fn(input_words, mask)


# id(mapping) -> (weakref guarding id reuse, compiled).  LutMapping is a
# mutable dataclass (unhashable), so a WeakKeyDictionary is not an
# option; the weakref callback evicts the entry when the mapping dies.
_by_id: Dict[int, Tuple["weakref.ref", CompiledMapping]] = {}
_by_fingerprint: "OrderedDict[str, CompiledMapping]" = OrderedDict()


def mapping_fingerprint(mapping: LutMapping) -> str:
    # Imported lazily: repro.pipeline imports the simulators at package
    # init, so a module-level import here would be circular.
    from repro.pipeline.artifact import fingerprint

    return fingerprint(mapping)


def compile_mapping(mapping: LutMapping) -> CompiledMapping:
    """Compile ``mapping`` (or return the cached compilation)."""
    ident = id(mapping)
    entry = _by_id.get(ident)
    if entry is not None and entry[0]() is mapping:
        _stats.memo_hits += 1
        return entry[1]
    fp = mapping_fingerprint(mapping)
    with _lock:
        compiled = _by_fingerprint.get(fp)
        if compiled is not None:
            _stats.memo_hits += 1
            _by_fingerprint.move_to_end(fp)
        else:
            source = generate_source(mapping)
            fn = _compile_source(source, _FN_NAME)
            _stats.compiles += 1
            compiled = CompiledMapping(fp, source, fn, tuple(mapping.input_nets))
            _by_fingerprint[fp] = compiled
            if len(_by_fingerprint) > MEMO_MAX_ENTRIES:
                _by_fingerprint.popitem(last=False)
        ref = weakref.ref(mapping, lambda _r, _k=ident: _by_id.pop(_k, None))
        _by_id[ident] = (ref, compiled)
    return compiled


def clear_compilation_cache() -> None:
    """Drop all in-process compilations (tests and benches)."""
    with _lock:
        _by_id.clear()
        _by_fingerprint.clear()
        _replay_memo.clear()


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


def evaluate_words(
    mapping: LutMapping, input_words: Dict[str, int], mask: int
) -> Dict[str, int]:
    """Evaluate every net of ``mapping`` with its compiled function.

    Same inputs, same returned dict and same ``KeyError`` on a missing
    input word as :func:`~repro.synth.wordsim.evaluate_mapping_words`.
    Any codegen failure raises, and the simulators let it propagate.
    """
    return compile_mapping(mapping)(input_words, mask)


# ----------------------------------------------------------------------
# Packing helpers
# ----------------------------------------------------------------------


def pack_bit_columns(values, width: int) -> List[int]:
    """Per-bit packed words of a multi-bit sample column.

    Exactly ``[pack_bit_column(values, b) for b in range(width)]`` but
    vectorized through numpy when the samples fit a machine word; the
    pure-Python packer is the fallback, so results are always
    bit-identical.
    """
    if width <= 0:
        return []
    if width <= 64 and len(values) >= 64:
        try:
            arr = np.asarray(values, dtype=np.uint64)
        except (OverflowError, TypeError):
            pass  # samples wider than uint64 (or not ints): Python path
        else:
            one = np.uint64(1)
            return [
                int.from_bytes(
                    np.packbits(
                        ((arr >> np.uint64(b)) & one).astype(np.uint8),
                        bitorder="little",
                    ).tobytes(),
                    "little",
                )
                for b in range(width)
            ]
    return [pack_bit_column(values, b) for b in range(width)]


# ----------------------------------------------------------------------
# ROM replay codegen
# ----------------------------------------------------------------------

_replay_memo: Dict[Tuple[bool, int], Callable] = {}


def _generate_replay_source(clocked: bool, output_bits: int) -> str:
    """Emit the ROM replay verifier for one word layout.

    The function checks the STG-derived trajectory against the actual
    programmed words and returns ``(enabled_edges, last_read_word,
    diverged_at)``: ``diverged_at`` is ``None`` when every cycle agrees,
    else the first cycle that disagrees (the counts are then not to be
    used).  ``output_bits`` is burned in as a literal; the
    expected word for an enabled edge ``k`` is
    ``codes[k+1] << output_bits | ref_outs[k]``, which equals the stored
    word exactly when both the next-state and output fields match.
    """
    ob = output_bits
    expected = f"(codes[k + 1] << {ob}) | ref_outs[k]" if ob else "codes[k + 1]"
    lines = [f"def {_REPLAY_NAME}(rom_words, addrs, codes, ref_outs, en_word, mask, state_words, out_words):"]
    if not clocked:
        # EN tied high: one list compare, no per-cycle Python.
        lines += [
            "    n = len(addrs)",
            "    got = [rom_words[a] for a in addrs]",
            f"    want = [{expected} for k in range(n)]",
            "    if got != want:",
            "        for k in range(n):",
            "            if got[k] != want[k]:",
            "                return (0, None, k)",
            "    return (n, got[n - 1] if n else None, None)",
        ]
        return "\n".join(lines) + "\n"
    lines += [
        "    disabled = ~en_word & mask",
        "    bad = 0",
        "    if disabled:",
        # A disabled edge must hold the state: any state-bit change on a
        # disabled cycle contradicts the latch.
        "        for w in state_words:",
        "            bad |= w ^ (w >> 1)",
        # ... and hold the latched output: bit k of (w ^ (w << 1)) is
        # ref_outs[k] ^ ref_outs[k-1] (with the k=0 latch reset to 0).
        "        for w in out_words:",
        "            bad |= w ^ (w << 1)",
        "        bad &= disabled",
        "    first_bad = bad & -bad",
        "    enabled = 0",
        "    last = None",
        # Check only the enabled edges before the first bad disabled
        # edge, so the earliest divergence is the one reported.
        "    bits = en_word & mask & (first_bad - 1 if bad else mask)",
        "    while bits:",
        "        low = bits & -bits",
        "        bits ^= low",
        "        k = low.bit_length() - 1",
        "        word = rom_words[addrs[k]]",
        f"        if word != {expected}:",
        "            return (enabled, last, k)",
        "        enabled += 1",
        "        last = word",
        "    return (enabled, last, first_bad.bit_length() - 1 if bad else None)",
    ]
    return "\n".join(lines) + "\n"


def compiled_replay(clocked: bool, output_bits: int) -> Callable:
    """The compiled ROM replay verifier for one (enable, layout) shape."""
    key = (clocked, output_bits)
    fn = _replay_memo.get(key)
    if fn is None:
        with _lock:
            fn = _replay_memo.get(key)
            if fn is None:
                source = _generate_replay_source(clocked, output_bits)
                fn = _compile_source(source, _REPLAY_NAME)
                _stats.compiles += 1
                _replay_memo[key] = fn
    return fn
