"""Small synchronous client for the compilation service.

Stdlib :mod:`http.client` only; one connection per call (the server is
``Connection: close``).  Raises :class:`ServiceError` for any non-2xx
answer, carrying the server's machine-readable ``error`` slug so
callers can branch on ``overloaded`` / ``timeout`` / validation
failures.

Transport failures — connection refused/reset, a response cut off
mid-body, a socket timeout — are retried with jittered exponential
backoff (``retries`` extra attempts, default 2).  Every request the
service accepts is a deterministic pure computation keyed by content
fingerprint, so resubmitting is always safe; a resent request that the
server already finished is answered straight from the artifact cache
or coalesced onto the in-flight execution.  HTTP-level errors (4xx/5xx)
are *not* retried: they are deterministic answers, not transport luck.
"""

from __future__ import annotations

import json
import random
import socket
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """Non-2xx response; ``reason`` is the server's error slug."""

    def __init__(self, status: int, reason: str, message: str):
        super().__init__(f"{status} {reason}: {message}")
        self.status = status
        self.reason = reason
        self.message = message


class ServiceClient:
    """Talk to a running ``romfsm serve`` instance."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        timeout_s: float = 300.0,
        retries: int = 2,
        backoff_s: float = 0.2,
        retry_seed: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self._rng = random.Random(retry_seed)

    # -- transport -----------------------------------------------------

    def _attempt(
        self,
        method: str,
        path: str,
        payload: Optional[bytes],
        headers: Dict[str, str],
    ):
        """One connection, one exchange; transport errors propagate."""
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            return response.status, response.getheader("Content-Type", ""), raw
        finally:
            conn.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ):
        payload = None
        headers: Dict[str, str] = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = (
                    self.backoff_s * (2 ** (attempt - 1))
                    * (0.5 + self._rng.random())
                )
                time.sleep(delay)
            try:
                return self._attempt(method, path, payload, headers)
            except (ConnectionError, socket.timeout, HTTPException, OSError) as exc:
                last_error = exc
        raise ServiceError(
            0, "unreachable",
            f"cannot reach {self.host}:{self.port} after "
            f"{self.retries + 1} attempt(s): {last_error}",
        ) from last_error

    def _json(self, method: str, path: str, body=None) -> Dict[str, Any]:
        status, _ctype, raw = self._request(method, path, body)
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(status, "bad_response", raw[:200].decode(
                "utf-8", "replace")) from exc
        if not (200 <= status < 300):
            raise ServiceError(
                status,
                decoded.get("error", "error"),
                decoded.get("message", ""),
            )
        return decoded

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        status, _ctype, raw = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, "error", raw[:200].decode("utf-8", "replace"))
        return raw.decode("utf-8")

    def evaluate(
        self,
        benchmark: Optional[str] = None,
        kiss: Optional[str] = None,
        name: Optional[str] = None,
        frequencies_mhz: Optional[Sequence[float]] = None,
        **options: Any,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = dict(options)
        if benchmark is not None:
            body["benchmark"] = benchmark
        if kiss is not None:
            body["kiss"] = kiss
        if name is not None:
            body["name"] = name
        if frequencies_mhz is not None:
            body["frequencies_mhz"] = list(frequencies_mhz)
        return self._json("POST", "/v1/evaluate", body)

    def submit_file(
        self, path: Union[str, Path], **options: Any
    ) -> Dict[str, Any]:
        """Evaluate a ``.kiss2`` file by uploading its text."""
        path = Path(path)
        name = path.stem.replace("-", "_") or "fsm"
        return self.evaluate(kiss=path.read_text(), name=name, **options)
