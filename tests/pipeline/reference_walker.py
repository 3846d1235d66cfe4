"""A frozen copy of the original fingerprint walker.

:func:`reference_digest` is the straightforward ``isinstance`` chain the
fingerprint format was defined by: one ``sha256`` per node, no memo.
The production walker in :mod:`repro.pipeline.artifact` must produce
the same bytes for every value; ``test_walker_differential.py`` checks
that on seeded random object graphs.  Do not "fix" or speed up this
file — it is the specification.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any

from repro.fsm.kiss import format_kiss
from repro.fsm.machine import FSM
from repro.pipeline.artifact import FingerprintError


def _frame(tag: bytes, payload: bytes) -> bytes:
    return tag + str(len(payload)).encode() + b":" + payload


def reference_digest(value: Any, _depth: int = 0) -> bytes:
    if _depth > 64:
        raise FingerprintError("object graph too deep to fingerprint")
    h = hashlib.sha256()
    if value is None:
        h.update(b"none")
    elif isinstance(value, bool):
        h.update(b"bool:" + (b"1" if value else b"0"))
    elif isinstance(value, int):
        h.update(_frame(b"int", str(value).encode()))
    elif isinstance(value, float):
        h.update(_frame(b"float", repr(value).encode()))
    elif isinstance(value, str):
        h.update(_frame(b"str", value.encode("utf-8")))
    elif isinstance(value, (bytes, bytearray)):
        h.update(_frame(b"bytes", bytes(value)))
    elif isinstance(value, FSM):
        h.update(_frame(b"fsm", value.name.encode("utf-8")))
        h.update(reference_digest(value.states, _depth + 1))
        h.update(_frame(b"reset", value.reset_state.encode("utf-8")))
        h.update(_frame(b"kiss", format_kiss(value).encode("utf-8")))
    elif isinstance(value, enum.Enum):
        h.update(_frame(b"enum", f"{type(value).__qualname__}.{value.name}".encode()))
    elif isinstance(value, (list, tuple)):
        h.update(b"seq:")
        for item in value:
            h.update(reference_digest(item, _depth + 1))
    elif isinstance(value, (set, frozenset)):
        h.update(b"set:")
        for d in sorted(reference_digest(item, _depth + 1) for item in value):
            h.update(d)
    elif isinstance(value, dict):
        h.update(b"map:")
        pairs = sorted(
            (reference_digest(k, _depth + 1), reference_digest(v, _depth + 1))
            for k, v in value.items()
        )
        for kd, vd in pairs:
            h.update(kd)
            h.update(vd)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(_frame(b"obj", type(value).__qualname__.encode()))
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        h.update(reference_digest(fields, _depth + 1))
    elif hasattr(value, "__dict__"):
        h.update(_frame(b"obj", type(value).__qualname__.encode()))
        h.update(reference_digest(vars(value), _depth + 1))
    elif hasattr(value, "__slots__"):
        h.update(_frame(b"obj", type(value).__qualname__.encode()))
        slots = {
            name: getattr(value, name)
            for name in type(value).__slots__
            if hasattr(value, name)
        }
        h.update(reference_digest(slots, _depth + 1))
    else:
        raise FingerprintError(
            f"cannot fingerprint {type(value).__qualname__!r} instances"
        )
    return h.digest()
