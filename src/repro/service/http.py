"""Minimal HTTP/1.1 framing over asyncio streams.

Just enough of the protocol for the service's needs — request line,
headers, ``Content-Length`` bodies and responses — with no
dependency beyond the stdlib.  Connections are one-shot
(``Connection: close``): the clients we care about (the sync client,
curl, Prometheus scrapers) all cope, and it keeps connection state out
of the server entirely.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "HttpError",
    "Request",
    "Response",
    "read_request",
    "json_response",
    "error_response",
]

MAX_HEADER_BYTES = 16 * 1024
DEFAULT_MAX_BODY_BYTES = 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A malformed or unacceptable request; maps to one error response."""

    def __init__(self, status: int, message: str, reason: str = "bad_request"):
        super().__init__(message)
        self.status = status
        self.message = message
        self.reason = reason


@dataclass
class Request:
    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}", "bad_json")


@dataclass
class Response:
    status: int
    body: bytes
    content_type: str = "application/json"

    def encode(self) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        return head.encode("ascii") + self.body


async def read_request(
    reader, max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
) -> Optional[Request]:
    """Parse one request from the stream; ``None`` on immediate EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except Exception as exc:  # IncompleteReadError, LimitOverrunError, reset
        if isinstance(exc, asyncio.IncompleteReadError) and not exc.partial:
            return None
        raise HttpError(400, "malformed request head", "bad_head")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large", "bad_head")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}", "bad_head")
    method, path, _version = parts

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}", "bad_head")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "invalid Content-Length", "bad_head")
        if length < 0:
            raise HttpError(400, "invalid Content-Length", "bad_head")
        if length > max_body_bytes:
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
                "oversized",
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception:
                raise HttpError(400, "truncated request body", "bad_body")
    return Request(method=method, path=path, headers=headers, body=body)


def json_response(payload: Any, status: int = 200) -> Response:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return Response(status=status, body=(body + "\n").encode("utf-8"))


def error_response(status: int, message: str, reason: str) -> Response:
    return json_response(
        {"ok": False, "error": reason, "message": message}, status=status
    )


def split_query(path: str) -> Tuple[str, str]:
    """``/a/b?x=1`` → (``/a/b``, ``x=1``)."""
    base, _, query = path.partition("?")
    return base, query
