"""Value-change-dump (VCD) emission and parsing.

The paper's flow (Fig. 6) hands switching activity from ModelSim to
XPower through a ``.vcd`` file: "post place and route simulation was
done using ModelSim ... The switching activities for all the components
was then saved in the .vcd file and was input to the Xpower tool."

This module closes the same loop for our substrate:

* :func:`write_vcd` serializes a simulated trace (any mapping of signal
  name to a per-cycle bit column) into standard IEEE-1364 VCD text;
* :func:`parse_vcd` reads such a file back into bit columns;
* :func:`vcd_toggle_counts` derives per-signal toggle counts, which is
  exactly what the activity extractor consumes — so power estimation
  can run from a ``.vcd`` produced by an *external* simulator as well.

Only the VCD subset needed for single-bit wires under one clock domain
is implemented (scalar value changes, ``#`` timestamps, one scope);
that is also the subset the paper's flow exercised.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.synth.netsim import net_words
from repro.synth.wordsim import unpack_word

__all__ = [
    "write_vcd",
    "parse_vcd",
    "vcd_toggle_counts",
    "ff_netlist_columns",
    "fsm_trace_columns",
]

# VCD identifier alphabet (printable ASCII ! through ~).
_ID_ALPHABET = [chr(c) for c in range(33, 127)]


def _identifier(index: int) -> str:
    """Short printable identifier for signal ``index`` (base-94)."""
    if index < 0:
        raise ValueError("index must be non-negative")
    digits = []
    while True:
        digits.append(_ID_ALPHABET[index % len(_ID_ALPHABET)])
        index //= len(_ID_ALPHABET)
        if index == 0:
            break
    return "".join(digits)


def write_vcd(
    columns: Mapping[str, Sequence[int]],
    timescale_ns: int = 10,
    module: str = "fsm",
    comment: str = "generated by repro.power.vcd",
) -> str:
    """Serialize per-cycle bit columns into VCD text.

    All columns must have equal length; cycle ``k`` is dumped at time
    ``k * timescale_ns``.  Values are scalar (one bit per signal).
    """
    lengths = {len(col) for col in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"unequal column lengths: {sorted(lengths)}")
    num_cycles = lengths.pop() if lengths else 0

    lines: List[str] = []
    emit = lines.append
    emit(f"$comment {comment} $end")
    emit(f"$timescale {timescale_ns}ns $end")
    emit(f"$scope module {module} $end")
    ids: Dict[str, str] = {}
    for index, name in enumerate(columns):
        ident = _identifier(index)
        ids[name] = ident
        emit(f"$var wire 1 {ident} {name} $end")
    emit("$upscope $end")
    emit("$enddefinitions $end")

    previous: Dict[str, Optional[int]] = {name: None for name in columns}
    for cycle in range(num_cycles):
        changes = []
        for name, column in columns.items():
            value = column[cycle] & 1
            if previous[name] != value:
                changes.append(f"{value}{ids[name]}")
                previous[name] = value
        if changes or cycle == 0:
            emit(f"#{cycle * timescale_ns}")
            if cycle == 0:
                emit("$dumpvars")
            lines.extend(changes)
            if cycle == 0:
                emit("$end")
    emit(f"#{num_cycles * timescale_ns}")
    return "\n".join(lines) + "\n"


def parse_vcd(text: str) -> Dict[str, List[int]]:
    """Parse scalar VCD text back into per-cycle bit columns.

    Cycles are inferred from the timescale: a change at time ``t`` with
    timescale ``s`` lands in cycle ``t // s``.  Signals hold their value
    between changes; signals start at 0 until their first change.
    """
    timescale = 1
    names: Dict[str, str] = {}  # identifier -> signal name
    lines = iter(text.splitlines())
    # --- header ---------------------------------------------------------
    for line in lines:
        token = line.strip()
        if token.startswith("$timescale"):
            field = token.split()[1]
            digits = "".join(ch for ch in field if ch.isdigit())
            timescale = int(digits) if digits else 1
        elif token.startswith("$var"):
            parts = token.split()
            # $var wire 1 <id> <name> $end
            if len(parts) >= 5:
                if parts[2] != "1":
                    raise ValueError(
                        f"only scalar (1-bit) wires supported, got {token!r}"
                    )
                names[parts[3]] = parts[4]
        elif token.startswith("$enddefinitions"):
            break

    changes: Dict[str, List] = {name: [] for name in names.values()}
    current_cycle = 0
    final_cycle = 0
    for line in lines:
        token = line.strip()
        if not token or token.startswith("$"):
            continue
        if token.startswith("#"):
            current_cycle = int(token[1:]) // timescale
            final_cycle = max(final_cycle, current_cycle)
            continue
        value_char, ident = token[0], token[1:]
        if value_char not in "01":
            raise ValueError(f"unsupported value {token!r}")
        name = names.get(ident)
        if name is None:
            raise ValueError(f"value change for undeclared id {ident!r}")
        changes[name].append((current_cycle, int(value_char)))

    columns: Dict[str, List[int]] = {}
    for name, events in changes.items():
        column = []
        value = 0
        pointer = 0
        for cycle in range(final_cycle):
            while pointer < len(events) and events[pointer][0] <= cycle:
                value = events[pointer][1]
                pointer += 1
            column.append(value)
        columns[name] = column
    return columns


def ff_netlist_columns(impl, stimulus: Sequence[int]) -> Dict[str, List[int]]:
    """Per-cycle value columns for every net of an FF implementation.

    Re-simulates the netlist (the toggle-count trace does not retain
    waveforms) and returns the raw columns suitable for
    :func:`write_vcd` — the repro equivalent of "save all signals" in
    ModelSim before the XPower hand-off.  The columns are the packed net
    words of :func:`repro.synth.netsim.net_words`, unpacked.
    """
    _, _, nets = net_words(impl, stimulus)
    return {name: unpack_word(word, len(stimulus)) for name, word in nets.items()}


def fsm_trace_columns(trace) -> Dict[str, List[int]]:
    """Input/output bit columns from a reference-simulator trace."""
    columns: Dict[str, List[int]] = {}
    for bit in range(trace.num_inputs):
        columns[f"in{bit}"] = trace.input_bit_column(bit)
    for bit in range(trace.num_outputs):
        columns[f"out{bit}"] = trace.output_bit_column(bit)
    return columns


def vcd_toggle_counts(
    source: Union[str, Path, Mapping[str, Sequence[int]]]
) -> Dict[str, int]:
    """Per-signal toggle counts from VCD text, a file path, or columns."""
    if isinstance(source, Path):
        columns = parse_vcd(source.read_text())
    elif isinstance(source, str):
        columns = parse_vcd(source)
    else:
        columns = {k: list(v) for k, v in source.items()}
    counts: Dict[str, int] = {}
    for name, column in columns.items():
        toggles = 0
        for prev, cur in zip(column, column[1:]):
            if (prev & 1) != (cur & 1):
                toggles += 1
        counts[name] = toggles
    return counts
