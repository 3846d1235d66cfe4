"""The process-global fault-injection switchboard.

Production code calls :func:`hit` at named failure points; with no plan
active this is one global read and a ``None`` return, so the hooks cost
nothing in normal operation.  The points threaded through the hot paths:

=====================  =============================================  ==================
point                  where                                          honoured kinds
=====================  =============================================  ==================
``cache.get``          ``ArtifactCache.get`` before the disk read     oserror, disk_full,
                                                                      truncate, bitflip,
                                                                      stall
``cache.put``          ``ArtifactCache.put`` before the disk write    oserror, disk_full,
                                                                      stall
``pipeline.stage``     ``Pipeline.run`` at each stage boundary        raise, stall
``driver.worker``      pool-worker entry in ``run_sharded``           kill, stall, raise
``service.job``        ``run_job`` before pipeline execution          raise, stall
``service.connection`` the server, just before writing a response     reset, stall
=====================  =============================================  ==================

Activation, in precedence order: an installed plan
(:func:`install` / the :func:`injected` context manager), else the
``REPRO_FAULTS`` environment variable (inline JSON or a file path,
parsed once per distinct value).  Pool workers are child processes, so
the environment route reaches them on every start method, and the
fork start method additionally inherits an installed plan.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Optional, Tuple

from repro.faults.plan import FaultAction, FaultInjected, FaultPlan
from repro.logutil import get_logger, kv

__all__ = [
    "FAULTS_ENV",
    "active_plan",
    "corrupt_bytes",
    "hit",
    "injected",
    "install",
    "uninstall",
]

FAULTS_ENV = "REPRO_FAULTS"

logger = get_logger("faults")

_installed: Optional[FaultPlan] = None
_env_memo: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def install(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the process-wide active plan (``None`` clears it)."""
    global _installed
    _installed = plan


def uninstall() -> None:
    install(None)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from ``REPRO_FAULTS``."""
    if _installed is not None:
        return _installed
    global _env_memo
    spec = os.environ.get(FAULTS_ENV)
    if not spec:
        return None
    memo_spec, memo_plan = _env_memo
    if spec != memo_spec:
        try:
            memo_plan = FaultPlan.from_spec(spec)
        except ValueError as exc:
            logger.warning(kv("faults_env_invalid", error=str(exc)))
            memo_plan = None
        _env_memo = (spec, memo_plan)
    return memo_plan


@contextmanager
def injected(plan: FaultPlan, export_env: bool = True):
    """Scope ``plan`` to a ``with`` block (the test-fixture activation).

    ``export_env`` also publishes the plan through ``REPRO_FAULTS`` so
    worker processes spawned inside the block pick it up regardless of
    the multiprocessing start method.
    """
    previous = _installed
    previous_env = os.environ.get(FAULTS_ENV)
    install(plan)
    if export_env:
        os.environ[FAULTS_ENV] = plan.to_json()
    try:
        yield plan
    finally:
        install(previous)
        if export_env:
            if previous_env is None:
                os.environ.pop(FAULTS_ENV, None)
            else:
                os.environ[FAULTS_ENV] = previous_env


def hit(point: str, **ctx: Any) -> Optional[FaultAction]:
    """Consult the active plan at ``point``; apply generic actions.

    ``oserror``/``disk_full`` raise :class:`OSError`, ``raise`` raises
    :class:`~repro.faults.plan.FaultInjected`, ``stall`` sleeps for the
    rule's ``delay_s`` (a *bounded* delay — stalls model slowness, not
    livelock), ``kill`` hard-exits the process (pool-worker death).
    Data/transport kinds (``truncate``/``bitflip``/``reset``) are
    returned for the call site to interpret; call sites ignore kinds
    they cannot apply.
    """
    plan = active_plan()
    if plan is None:
        return None
    action = plan.fire(point, **ctx)
    if action is None:
        return None
    logger.info(kv("fault_fired", point=point, kind=action.kind))
    if action.kind == "oserror":
        import errno

        raise OSError(errno.EIO, f"injected I/O error at {point}")
    if action.kind == "disk_full":
        import errno

        raise OSError(errno.ENOSPC, f"injected disk-full at {point}")
    if action.kind == "raise":
        raise FaultInjected(point)
    if action.kind == "stall":
        time.sleep(action.delay_s)
        return None
    if action.kind == "kill":
        os._exit(42)
    return action


def corrupt_bytes(action: FaultAction, payload: bytes) -> bytes:
    """Apply a data-corruption action to freshly read bytes.

    Deterministic on purpose: ``truncate`` keeps the first half (a torn
    read), ``bitflip`` flips one bit in the middle byte (silent media
    corruption).  Anything else passes through unchanged.
    """
    if not payload:
        return payload
    if action.kind == "truncate":
        return payload[: len(payload) // 2]
    if action.kind == "bitflip":
        index = len(payload) // 2
        flipped = payload[index] ^ 0x01
        return payload[:index] + bytes([flipped]) + payload[index + 1:]
    return payload
