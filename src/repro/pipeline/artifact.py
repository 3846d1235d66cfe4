"""Hashable, serializable stage artifacts.

Every stage output is wrapped in an :class:`Artifact`: the value itself
plus a content *fingerprint* — a SHA-256 digest of a canonical recursive
encoding of the object graph.  Downstream cache keys are derived from
upstream fingerprints, so the fingerprint must be stable across
processes and interpreter sessions.  Pickle bytes are **not** (set
iteration order depends on string-hash randomization), which is why the
walker below canonicalizes containers itself:

- dict items and set elements are digested element-wise and sorted;
- dataclasses, ``__dict__`` objects and ``__slots__`` objects digest as
  (qualified class name, field map);
- an :class:`~repro.fsm.machine.FSM` digests as its name plus canonical
  KISS2 text, so the ``parse`` stage fingerprint is exactly the
  round-trippable on-disk representation.

How the walker gets there fast without moving a digest:

- It dispatches on the exact ``type(value)``.  Any other type — an
  ``IntEnum``, a ``str`` or ``int`` subclass, a namedtuple, an object
  with ``__dict__`` — goes through the original ``isinstance`` chain in
  its original order (so an ``IntEnum`` still digests as an ``int``).
  A class the chain finds to be a dataclass joins the exact table,
  since every branch test before it depends on the class alone.
- Digests of exact ``int`` (up to 64 bits), ``str`` (up to 256
  characters), ``bool`` and ``None`` leaves are memoised process-wide,
  one bounded memo per type, so ``1`` and ``True`` never share an
  entry.  A leaf's digest is a pure function of its type and value, so
  the memo cannot carry anything from one call into another.
- Floats are never memoised: ``0.0 == -0.0`` (equal hashes, one dict
  key) but their ``repr`` — and so their digest — differs.
- A list or tuple hashes its element digests in one joined ``update``;
  a dataclass's field names, their digests and their sorted order are
  worked out once per class.

``tests/pipeline/reference_walker.py`` keeps the plain walker the
format was defined by; a differential test holds the two equal.

Values are *stored* with pickle (loading gives an equal object; the
bytes themselves need not be canonical), only *keyed* by fingerprint.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Callable, Dict, Optional, Tuple

from repro.fsm.kiss import format_kiss
from repro.fsm.machine import FSM

__all__ = ["Artifact", "FingerprintError", "fingerprint"]

_MAX_DEPTH = 64
# Leaf memo bounds: entries per memo (emptied when full), and the
# largest leaves worth keeping.
_LEAF_MEMO_MAX = 1 << 14
_LEAF_INT_LIMIT = 1 << 63
_LEAF_STR_MAX = 256


class FingerprintError(TypeError):
    """A value reached the fingerprint walker that it cannot canonicalize."""


def _frame(tag: bytes, payload: bytes) -> bytes:
    """Length-prefixed frame so adjacent fields cannot alias."""
    return tag + str(len(payload)).encode() + b":" + payload


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _too_deep() -> FingerprintError:
    return FingerprintError("object graph too deep to fingerprint")


_Handler = Callable[[Any, int], bytes]

_NONE_DIGEST = _sha(b"none")
_BOOL_DIGESTS = {False: _sha(b"bool:0"), True: _sha(b"bool:1")}
_INT_DIGESTS: Dict[int, bytes] = {}
_STR_DIGESTS: Dict[str, bytes] = {}


def _remember(memo: Dict[Any, bytes], key: Any, digest: bytes) -> bytes:
    if len(memo) >= _LEAF_MEMO_MAX:
        memo.clear()
    memo[key] = digest
    return digest


def _none(value: None, depth: int) -> bytes:
    return _NONE_DIGEST


def _bool(value: bool, depth: int) -> bytes:
    return _BOOL_DIGESTS[value]


def _int(value: int, depth: int) -> bytes:
    digest = _INT_DIGESTS.get(value)
    if digest is None:
        digest = _sha(_frame(b"int", str(value).encode()))
        if -_LEAF_INT_LIMIT <= value < _LEAF_INT_LIMIT:
            _remember(_INT_DIGESTS, value, digest)
    return digest


def _float(value: float, depth: int) -> bytes:
    return _sha(_frame(b"float", repr(value).encode()))


def _str(value: str, depth: int) -> bytes:
    digest = _STR_DIGESTS.get(value)
    if digest is None:
        digest = _sha(_frame(b"str", value.encode("utf-8")))
        if len(value) <= _LEAF_STR_MAX:
            _remember(_STR_DIGESTS, value, digest)
    return digest


def _bytes(value: Any, depth: int) -> bytes:
    return _sha(_frame(b"bytes", bytes(value)))


def _fsm(value: FSM, depth: int) -> bytes:
    # Canonical KISS2 text, plus the state list and reset state
    # explicitly — a dangling state never appears in a transition line
    # but still widens the encoding.
    return _sha(
        _frame(b"fsm", value.name.encode("utf-8"))
        + _digest(value.states, depth + 1)
        + _frame(b"reset", value.reset_state.encode("utf-8"))
        + _frame(b"kiss", format_kiss(value).encode("utf-8"))
    )


def _enum(value: enum.Enum, depth: int) -> bytes:
    return _sha(_frame(b"enum", f"{type(value).__qualname__}.{value.name}".encode()))


def _seq(value: Any, depth: int) -> bytes:
    inner = depth + 1
    return _sha(b"seq:" + b"".join([_digest(item, inner) for item in value]))


def _set(value: Any, depth: int) -> bytes:
    inner = depth + 1
    return _sha(b"set:" + b"".join(sorted([_digest(item, inner) for item in value])))


def _map(value: Dict[Any, Any], depth: int) -> bytes:
    # Every digest is 32 bytes, so sorting the joined (key, value)
    # digests orders them exactly as sorting the pairs would.
    inner = depth + 1
    return _sha(b"map:" + b"".join(sorted([
        _digest(k, inner) + _digest(v, inner) for k, v in value.items()
    ])))


def _object(value: Any, fields: Dict[str, Any], depth: int) -> bytes:
    head = _frame(b"obj", type(value).__qualname__.encode())
    return _sha(head + _digest(fields, depth + 1))


# Per dataclass: the class-name frame and its fields as (name digest,
# name), sorted by digest — the order the field map's entries hash in.
_DATACLASS_LAYOUTS: Dict[type, Tuple[bytes, Tuple[Tuple[bytes, str], ...]]] = {}


def _dataclass(value: Any, depth: int) -> bytes:
    cls = type(value)
    layout = _DATACLASS_LAYOUTS.get(cls)
    if layout is None:
        names = [f.name for f in dataclasses.fields(cls)]
        layout = (
            _frame(b"obj", cls.__qualname__.encode()),
            tuple(sorted((_str(name, 0), name) for name in names)),
        )
        _DATACLASS_LAYOUTS[cls] = layout
    head, fields = layout
    # The field map sits one level down, its entries two.
    if depth + 1 > _MAX_DEPTH:
        raise _too_deep()
    inner = depth + 2
    body = b"".join([
        name_digest + _digest(getattr(value, name), inner)
        for name_digest, name in fields
    ])
    return _sha(head + _sha(b"map:" + body))


def _by_isinstance(value: Any, depth: int) -> bytes:
    """The walker's original branch order, for every non-exact type.

    ``None`` and ``bool`` admit no subclasses, so the exact table always
    takes them; the chain starts at ``int``.
    """
    if isinstance(value, int):
        return _sha(_frame(b"int", str(value).encode()))
    if isinstance(value, float):
        return _float(value, depth)
    if isinstance(value, str):
        return _sha(_frame(b"str", value.encode("utf-8")))
    if isinstance(value, (bytes, bytearray)):
        return _bytes(value, depth)
    if isinstance(value, FSM):
        return _fsm(value, depth)
    if isinstance(value, enum.Enum):
        return _enum(value, depth)
    if isinstance(value, (list, tuple)):
        return _seq(value, depth)
    if isinstance(value, (set, frozenset)):
        return _set(value, depth)
    if isinstance(value, dict):
        return _map(value, depth)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _EXACT[type(value)] = _dataclass
        return _dataclass(value, depth)
    if hasattr(value, "__dict__"):
        return _object(value, vars(value), depth)
    if hasattr(value, "__slots__"):
        slots = {
            name: getattr(value, name)
            for name in type(value).__slots__
            if hasattr(value, name)
        }
        return _object(value, slots, depth)
    raise FingerprintError(
        f"cannot fingerprint {type(value).__qualname__!r} instances"
    )


_EXACT: Dict[type, _Handler] = {
    type(None): _none,
    bool: _bool,
    int: _int,
    float: _float,
    str: _str,
    bytes: _bytes,
    bytearray: _bytes,
    FSM: _fsm,
    list: _seq,
    tuple: _seq,
    set: _set,
    frozenset: _set,
    dict: _map,
}


def _digest(value: Any, _depth: int = 0) -> bytes:
    if _depth > _MAX_DEPTH:
        raise _too_deep()
    return _EXACT.get(type(value), _by_isinstance)(value, _depth)


def fingerprint(value: Any) -> str:
    """SHA-256 hex fingerprint of ``value``'s canonical encoding."""
    return _digest(value).hex()


class Artifact:
    """One stage output: the value plus its content fingerprint.

    A cache hit is built with :meth:`deferred`: the fingerprint comes
    from the entry header and ``load`` makes the value on the first
    read of :attr:`value`, which then keeps it.  A stage whose value
    nothing reads is never deserialized.
    """

    __slots__ = ("fingerprint", "_value", "_load")

    def __init__(self, value: Any, fingerprint: str):
        self.fingerprint = fingerprint
        self._value = value
        self._load: Optional[Callable[[], Any]] = None

    @classmethod
    def of(cls, value: Any) -> "Artifact":
        return cls(value=value, fingerprint=fingerprint(value))

    @classmethod
    def deferred(cls, fingerprint: str, load: Callable[[], Any]) -> "Artifact":
        art = cls(None, fingerprint)
        art._load = load
        return art

    @property
    def value(self) -> Any:
        load = self._load
        if load is not None:
            self._value = load()
            self._load = None
        return self._value

    def __reduce__(self):
        # A pending load closes over a file's bytes; ship the value.
        return (Artifact, (self.value, self.fingerprint))
