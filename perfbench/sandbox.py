"""Hermetic runs: scrubbed environment, private temp dirs, process teardown.

Everything a run writes lives under ``<checkout>/.perfbench_tmp/<pid>``
and is removed at the end.  Every process a run starts is stopped and
reaped before it exits; :func:`settle` finds any that is left, running
or zombie, so the caller can kill it and count it as an error.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "AMBIENT_VARS",
    "RunDirs",
    "become_subreaper",
    "descendants",
    "kill",
    "process_table",
    "reap_children",
    "scrub_environment",
    "settle",
    "stop_multiprocessing_helpers",
]

# Settings that would turn a cold pass warm (a shared cache), route it
# through a cache tier, inject faults or switch the simulation engine.
AMBIENT_VARS = (
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_PEERS",
    "REPRO_CACHE_SECRET",
    "REPRO_FAULTS",
    "REPRO_SIM_ENGINE",
)

_PR_SET_CHILD_SUBREAPER = 36


def scrub_environment(environ=os.environ) -> List[str]:
    """Remove :data:`AMBIENT_VARS`; returns the names that were set."""
    return [name for name in AMBIENT_VARS if environ.pop(name, None) is not None]


class RunDirs:
    """A private temp root inside the checkout for one run.

    ``tempfile`` and ``TMPDIR`` (inherited by child processes) point
    into it.  The multiprocessing temp dir, which holds the forkserver's
    socket, is given as a path relative to the working directory: an
    AF_UNIX address is limited to about 100 bytes and the checkout's
    absolute path may be longer.
    """

    def __init__(self, checkout: Path):
        self.root = (checkout / ".perfbench_tmp" / str(os.getpid())).resolve()
        self.root.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(self.root)
        os.environ["TMPDIR"] = str(self.root)
        mp_dir = self.root / "mp"
        mp_dir.mkdir()
        multiprocessing.current_process()._config["tempdir"] = os.path.relpath(mp_dir)

    def new_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=str(self.root)))

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()  # only when no other run uses it
        except OSError:
            pass


def become_subreaper() -> bool:
    """Adopt orphaned descendants so they can be found and reaped.

    Without this, a helper that outlives its parent is re-parented to
    PID 1 and, in a container whose init does not reap, stays a zombie.
    Linux only; returns False elsewhere.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def process_table() -> Dict[int, Tuple[int, str, str]]:
    """``pid -> (ppid, state, command name)`` for every process in /proc."""
    table: Dict[int, Tuple[int, str, str]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                raw = fh.read().decode("utf-8", "replace")
        except OSError:
            continue  # exited while we looked
        head, _, tail = raw.rpartition(")")
        comm = head.partition("(")[2]
        fields = tail.split()
        table[int(entry)] = (int(fields[1]), fields[0], comm)
    return table


def descendants(
    root: int, table: Optional[Dict[int, Tuple[int, str, str]]] = None
) -> List[Tuple[int, str, str]]:
    """``(pid, state, name)`` of every process below ``root``."""
    table = process_table() if table is None else table
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _state, _name) in table.items():
        children.setdefault(ppid, []).append(pid)
    found: List[Tuple[int, str, str]] = []
    stack = list(children.get(root, ()))
    while stack:
        pid = stack.pop()
        _ppid, state, name = table[pid]
        found.append((pid, state, name))
        stack.extend(children.get(pid, ()))
    return sorted(found)


def reap_children() -> int:
    """Collect every exited child; returns how many were reaped."""
    reaped = 0
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid == 0:
            return reaped
        reaped += 1


def stop_multiprocessing_helpers() -> None:
    """Stop the forkserver and the resource tracker, if this process runs them.

    A process pool's ``shutdown`` joins its workers but leaves both
    helpers running until the interpreter exits; they then outlive it.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (
        getattr(forkserver, "_forkserver", None),
        getattr(resource_tracker, "_resource_tracker", None),
    ):
        stop = getattr(helper, "_stop", None)
        if stop is None:
            continue
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def kill(processes: List[Tuple[int, str, str]]) -> None:
    for pid, _state, _name in processes:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def settle(root: int, timeout_s: float = 5.0) -> List[Tuple[int, str, str]]:
    """Reap until no descendant of ``root`` is left or ``timeout_s`` passes.

    Returns what is left, running or zombie (empty when clean).
    """
    deadline = time.monotonic() + timeout_s
    while True:
        reap_children()
        left = descendants(root)
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.05)
