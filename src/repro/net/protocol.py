"""The wire protocol: length-prefixed frames carrying typed messages.

Every frame on the wire is::

    +----------------+-----------+------------------+
    | length (4B !I) | codec (1B)| payload (length-1)|
    +----------------+-----------+------------------+

``length`` is the big-endian byte count of everything after itself
(codec byte included), so a receiver always knows how much to read
before touching the payload.  ``codec`` names the payload encoding and
is always ``0`` (JSON); a frame carrying any other value is refused
with :class:`ProtocolError`.  Frames larger than
:data:`MAX_FRAME_BYTES` are rejected *before* the payload is read, so a
hostile or corrupt length prefix cannot make either side allocate
gigabytes.

The payload decodes to one *message*: a dict with a ``"type"`` key (one
of :data:`MESSAGE_TYPES`) plus type-specific fields — the full table
lives in ``docs/NETWORK.md``.  Errors travel as ``error`` messages
carrying the PEP 249 class name (``"ProgrammingError"``, ...), which
:func:`raise_wire_error` maps back onto :mod:`repro.errors` client-side
so network and embedded code paths raise identically.

Values are JSON-safe with two tagged extensions (numpy types dominate
both parameters and result rows): ``{"$dt64": "1998-12-01"}`` for
``numpy.datetime64`` / ``datetime.date`` and ``{"$b64": "..."}`` for
bytes.  :func:`to_wire` / :func:`from_wire` apply the tagging
recursively; numpy scalars degrade to their Python equivalents.
"""

from __future__ import annotations

import asyncio
import base64
import datetime
import json
import socket
import struct
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import (
    DatabaseError,
    Error,
    OperationalError,
)
from repro import errors as _errors_module

#: Protocol revision, exchanged in HELLO/WELCOME.
PROTOCOL_VERSION = 1

#: Default server port (unregistered/private range).
DEFAULT_PORT = 6414

#: Hard ceiling on one frame (length prefix included), both directions.
MAX_FRAME_BYTES = 16 << 20

#: Rows per RESULT/ROWS frame when a request names no ``fetch``/``n``.
DEFAULT_FETCH_BATCH = 1024

#: The payload codec: the one-byte discriminator after the length prefix.
CODEC_JSON = 0

_LEN = struct.Struct("!I")

#: Client-originated message types.
CLIENT_MESSAGES = (
    "hello", "prepare", "execute", "fetch", "close_stmt", "stats",
    "goodbye",
)
#: Server-originated message types.
SERVER_MESSAGES = (
    "welcome", "prepared", "result", "rows", "stats_result", "ok",
    "error", "bye",
)
MESSAGE_TYPES = CLIENT_MESSAGES + SERVER_MESSAGES


class ProtocolError(OperationalError):
    """A malformed, oversized or out-of-sequence wire exchange."""


# ----------------------------------------------------------------------
# Value tagging (numpy / dates / bytes <-> JSON-safe structures)
# ----------------------------------------------------------------------
def to_wire(value: Any) -> Any:
    """Recursively convert *value* into a JSON-safe structure."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, np.datetime64):
        return {"$dt64": str(value)}
    if isinstance(value, np.generic):        # scalar: int64, float64, str_
        return to_wire(value.item())
    if isinstance(value, datetime.date):     # datetime.datetime too
        return {"$dt64": value.isoformat()}
    if isinstance(value, (bytes, bytearray)):
        return {"$b64": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, dict):
        return {str(k): to_wire(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_wire(v) for v in value]
    if isinstance(value, np.ndarray):
        return [to_wire(v) for v in value.tolist()]
    raise ProtocolError(
        f"value of type {type(value).__name__} is not wire-encodable"
    )


def _datetime_from_wire(text: str) -> Any:
    """``$dt64`` as an embedded ``.item()`` gives it (a day decodes to
    ``datetime.date``); nanoseconds and NaT, which Python cannot hold, stay
    ``numpy.datetime64`` so a bound parameter keeps its truncation check."""
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        value = np.datetime64(text)
    item = value.item()
    return item if isinstance(item, datetime.date) else value


def from_wire(value: Any) -> Any:
    """Inverse of :func:`to_wire` (tagged dicts back to rich values)."""
    if isinstance(value, dict):
        if len(value) == 1:
            if "$dt64" in value:
                return _datetime_from_wire(value["$dt64"])
            if "$b64" in value:
                return base64.b64decode(value["$b64"])
        return {k: from_wire(v) for k, v in value.items()}
    if isinstance(value, list):
        return [from_wire(v) for v in value]
    return value


# ----------------------------------------------------------------------
# Frame encode / decode
# ----------------------------------------------------------------------
def encode_frame(message: Dict[str, Any], *,
                 max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise one message dict into a complete wire frame."""
    body = json.dumps(to_wire(message), separators=(",", ":"),
                      allow_nan=True).encode("utf-8")
    length = len(body) + 1
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit"
        )
    return _LEN.pack(length) + bytes([CODEC_JSON]) + body


def decode_payload(codec: int, body: bytes) -> Dict[str, Any]:
    """Decode one frame payload into its message dict."""
    if codec != CODEC_JSON:
        raise ProtocolError(f"unknown codec id {codec}")
    try:
        message = from_wire(json.loads(body.decode("utf-8")))
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame payload is not a typed message")
    if message["type"] not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {message['type']!r}")
    return message


def split_header(header: bytes, *,
                 max_frame: int = MAX_FRAME_BYTES) -> int:
    """Validate a 4-byte length prefix; returns the remaining byte count."""
    (length,) = _LEN.unpack(header)
    if length < 1:
        raise ProtocolError("frame length must cover the codec byte")
    if length > max_frame:
        raise ProtocolError(
            f"peer announced a {length}-byte frame "
            f"(limit {max_frame}); refusing to read it"
        )
    return length


# ----------------------------------------------------------------------
# Blocking socket I/O (client side and tests)
# ----------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError(
                "connection closed mid-frame "
                f"({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


def recv_message(sock: socket.socket, *,
                 max_frame: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    length = split_header(_recv_exactly(sock, 4), max_frame=max_frame)
    payload = _recv_exactly(sock, length)
    return decode_payload(payload[0], payload[1:])


# ----------------------------------------------------------------------
# asyncio stream I/O (server side)
# ----------------------------------------------------------------------
async def read_message(reader: asyncio.StreamReader, *,
                       max_frame: int = MAX_FRAME_BYTES
                       ) -> Optional[Dict[str, Any]]:
    """Read one message; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None                     # clean close between frames
        raise ProtocolError(
            f"connection closed inside a frame header "
            f"({len(exc.partial)}/4 bytes)"
        ) from exc
    length = split_header(header, max_frame=max_frame)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame "
            f"({len(exc.partial)}/{length} bytes)"
        ) from exc
    return decode_payload(payload[0], payload[1:])


async def write_message(writer: asyncio.StreamWriter,
                        message: Dict[str, Any], *,
                        max_frame: int = MAX_FRAME_BYTES) -> None:
    writer.write(encode_frame(message, max_frame=max_frame))
    await writer.drain()


# ----------------------------------------------------------------------
# Typed errors over the wire
# ----------------------------------------------------------------------
def error_message(exc: BaseException) -> Dict[str, Any]:
    """An ``error`` frame for *exc*, carrying its PEP 249 class name.

    Engine exceptions already live on the DB-API hierarchy; anything
    else (a bug, a cancelled future) degrades to ``OperationalError`` so
    the client always gets a class it knows.
    """
    name = type(exc).__name__
    cls = getattr(_errors_module, name, None)
    if not (isinstance(cls, type) and issubclass(cls, Error)):
        # Engine subclasses (CatalogError, ...) still map onto a DB-API
        # branch; report the nearest PEP 249 ancestor by name.
        cls = type(exc) if isinstance(exc, Error) else OperationalError
        for base in type(exc).__mro__:
            if getattr(_errors_module, base.__name__, None) is base \
                    and issubclass(base, Error):
                name = base.__name__
                break
        else:
            name = "OperationalError"
    return {"type": "error", "error": name, "message": str(exc)}


def raise_wire_error(message: Dict[str, Any]) -> None:
    """Re-raise an ``error`` message as its PEP 249 exception class."""
    name = message.get("error", "OperationalError")
    cls = getattr(_errors_module, name, None)
    if not (isinstance(cls, type) and issubclass(cls, Error)):
        cls = DatabaseError
    raise cls(message.get("message", "server error"))
