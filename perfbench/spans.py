"""In-memory span tracer that measures the program's layers from outside.

A span is ``(id, name, start, end, parent_id)``.  The tracer wraps the
program's public functions and methods (every module binding of them,
because callers bind layer functions by name with ``from m import f``)
and records one span per call.  Spans stay in memory and are summarised
when the run ends; nothing is written while the clock runs.

The parent of a span is the innermost open span of the same execution
context (a ``ContextVar``), so spans opened by different threads or
asyncio tasks never nest into each other.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Tracer", "layer_totals", "union_seconds"]

# (id, name, start, end, parent id or 0)
Span = Tuple[int, str, float, float, int]


def union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-name ``calls``, ``s`` and ``self_s`` of a span list.

    ``s`` sums only the outermost span of each name along a call chain,
    so a recursive layer is not counted twice.  ``self_s`` is a span's
    duration minus the part of its interval covered by its children
    (the union, clipped to the parent, so overlapping async children
    count once).
    """
    by_id = {span[0]: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _id, _name, start, end, parent in spans:
        if parent:
            children[parent].append((start, end))
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for span_id, name, start, end, parent in spans:
        entry = totals[name]
        entry["calls"] += 1
        covered = union_seconds(
            (max(start, c_start), min(end, c_end))
            for c_start, c_end in children.get(span_id, ())
            if c_end > start and c_start < end
        )
        entry["self_s"] += (end - start) - covered
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[1] != name:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            entry["s"] += end - start
    return dict(totals)


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:func"`` or ``"pkg.mod:Class.method"`` → (owner, attr, obj)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans around wrapped calls; undo restores every binding."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _open(self) -> Tuple[int, int, contextvars.Token, float]:
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        return span_id, parent, token, self.clock()

    def _close(self, name: str, opened) -> None:
        end = self.clock()
        span_id, parent, token, start = opened
        self._current.reset(token)
        with self._lock:
            self.spans.append((span_id, name, start, end, parent))

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller (a child of the open span)."""
        with self._lock:
            self.spans.append(
                (next(self._ids), name, start, end, self._current.get())
            )

    def wrap(
        self,
        name: str,
        func: Callable,
        on_result: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """A wrapper of ``func`` that records one ``name`` span per call.

        ``on_result(args, result)`` runs after the span closes, so its
        own cost is not charged to the layer.
        """
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                opened = self._open()
                try:
                    result = await func(*args, **kwargs)
                finally:
                    self._close(name, opened)
                if on_result is not None:
                    on_result(args, result)
                return result

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(name, opened)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- installing ----------------------------------------------------

    def install(
        self,
        name: str,
        target: str,
        on_result: Optional[Callable[[tuple, Any], None]] = None,
        module_prefix: str = "repro",
    ) -> int:
        """Wrap ``target`` and rebind every module-level alias of it.

        Returns the number of bindings replaced.  Function targets are
        rebound in every loaded module under ``module_prefix`` that holds
        the same object (``from m import f`` copies), so import all the
        modules a workload uses before installing.
        """
        owner, attr, original = _resolve(target)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {target}: not a plain function")
        wrapper = self.wrap(name, original, on_result)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        bound = 1
        if inspect.isclass(owner):
            return bound
        for module_name, module in list(sys.modules.items()):
            if module is None or module is owner:
                continue
            if not (module_name == module_prefix
                    or module_name.startswith(module_prefix + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)
                    bound += 1
        return bound

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(
        self, window: Optional[Tuple[float, float]] = None
    ) -> Dict[str, Dict[str, float]]:
        """:func:`layer_totals` of the spans inside ``window`` (all if None)."""
        with self._lock:
            spans = list(self.spans)
        if window is not None:
            lo, hi = window
            spans = [s for s in spans if s[2] >= lo and s[3] <= hi]
        return layer_totals(spans)

    def top_level_seconds(self, start: float, end: float) -> float:
        """Union of the root spans' intervals inside ``[start, end]``."""
        with self._lock:
            roots = [(s, e) for _i, _n, s, e, parent in self.spans if not parent]
        return union_seconds(
            (max(s, start), min(e, end)) for s, e in roots if e > start and s < end
        )
