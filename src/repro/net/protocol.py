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

Values are JSON-safe with three tagged extensions (numpy types dominate
both parameters and results): ``{"$dt64": "1998-12-01"}`` for
``numpy.datetime64`` / ``datetime.date``, ``{"$b64": "..."}`` for bytes
and ``{"$col": dtype.str, ...}`` for a whole numpy column — its raw
bytes in base64 (``"b64"``), or for unicode its cells as a JSON list
(``"list"``).  Numpy scalars degrade to their Python equivalents, and a
column decodes to its ``tolist()``, the cells an embedded cursor
returns.  Frames are tagged by the JSON encoder's ``default`` hook
(:func:`_tag`) and untagged by the decoder's ``object_hook``
(:func:`_untag`).
"""

from __future__ import annotations

import base64
import datetime
import json
import socket
import struct
from typing import Any, BinaryIO, Dict, Optional

import numpy as np

from repro.errors import (
    DatabaseError,
    Error,
    OperationalError,
)
from repro import errors as _errors_module

#: Protocol revision, exchanged in HELLO/WELCOME (2: results travel as
#: ``$col`` columns).
PROTOCOL_VERSION = 2

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
def _tag(value: Any) -> Any:
    """One value JSON cannot hold, as its tagged JSON form: the
    ``default`` hook of :func:`encode_frame`'s encoder."""
    if isinstance(value, np.datetime64):
        return {"$dt64": str(value)}
    if isinstance(value, np.generic):        # scalar: int64, bool_, ...
        return value.item()
    if isinstance(value, datetime.date):     # datetime.datetime too
        return {"$dt64": value.isoformat()}
    if isinstance(value, (bytes, bytearray)):
        return {"$b64": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, np.ndarray):
        return _column_to_wire(value)
    raise ProtocolError(
        f"value of type {type(value).__name__} is not wire-encodable"
    )


#: Column kinds that travel as raw bytes.  Unicode goes as a JSON list
#: (its cells already are JSON strings, and UCS-4 bytes would be 4x
#: larger); any other kind (object, ...) and any array that is not one
#: column go cell by cell.
_RAW_KINDS = "biufmMS"


def _column_to_wire(col: np.ndarray) -> Any:
    """One numpy column as one tagged value (see the module docstring)."""
    kind = col.dtype.kind if col.ndim == 1 else "O"
    if kind in _RAW_KINDS:
        return {"$col": col.dtype.str,
                "b64": base64.b64encode(col.tobytes()).decode("ascii")}
    if kind == "U":
        return {"$col": col.dtype.str, "list": col.tolist()}
    return col.tolist()


def _column_from_wire(value: Dict[str, Any]) -> list:
    """A ``$col`` back to its cells; raises on anything
    :func:`_column_to_wire` cannot have sent."""
    spec = value["$col"]
    if not isinstance(spec, str):
        raise ProtocolError(f"$col dtype must be a string, not {spec!r}")
    dtype = np.dtype(spec)
    if dtype.kind not in _RAW_KINDS + "U" or dtype.itemsize == 0:
        raise ProtocolError(f"$col dtype {spec!r} is not a column dtype")
    if dtype.kind == "U":
        if value.keys() == {"$col", "list"} and \
                isinstance(value["list"], list):
            return value["list"]
    elif value.keys() == {"$col", "b64"}:
        raw = base64.b64decode(value["b64"], validate=True)
        if len(raw) % dtype.itemsize:
            raise ProtocolError(
                f"$col of {len(raw)} bytes is not a whole number of "
                f"{dtype.itemsize}-byte {spec!r} items")
        return np.frombuffer(raw, dtype).tolist()
    raise ProtocolError(f"malformed {spec!r} $col")


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


def _untag(obj: Dict[str, Any]) -> Any:
    """A JSON object back to its value (tagged ones to rich values): the
    ``object_hook`` of :func:`decode_payload`'s decoder."""
    if "$col" in obj:
        return _column_from_wire(obj)
    if len(obj) == 1:
        if "$dt64" in obj:
            return _datetime_from_wire(obj["$dt64"])
        if "$b64" in obj:
            return base64.b64decode(obj["$b64"])
    return obj


# ----------------------------------------------------------------------
# Frame encode / decode
# ----------------------------------------------------------------------
def encode_frame(message: Dict[str, Any], *,
                 max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise one message dict into a complete wire frame.

    The encoder walks the message in C and calls :func:`_tag` only for
    the values JSON cannot hold — a result column is one such call.
    """
    try:
        text = json.dumps(message, separators=(",", ":"), allow_nan=True,
                          default=_tag)
    except (TypeError, ValueError) as exc:    # a non-string key, a cycle
        raise ProtocolError(f"unencodable message: {exc}") from exc
    body = text.encode("utf-8")
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
        message = json.loads(body.decode("utf-8"), object_hook=_untag)
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
# Blocking socket I/O
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


def read_frame(rfile: BinaryIO, *,
               max_frame: int = MAX_FRAME_BYTES) -> Optional[Dict[str, Any]]:
    """Read one message from a buffered socket file (the server's side);
    ``None`` on a clean EOF at a frame boundary."""
    header = rfile.read(4)
    if not header:
        return None                         # clean close between frames
    if len(header) < 4:
        raise ProtocolError(
            f"connection closed inside a frame header ({len(header)}/4 bytes)")
    length = split_header(header, max_frame=max_frame)
    payload = rfile.read(length)
    if len(payload) < length:
        raise ProtocolError(
            f"connection closed mid-frame ({len(payload)}/{length} bytes)")
    return decode_payload(payload[0], payload[1:])


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
