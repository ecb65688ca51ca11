"""Network front door: wire protocol, threaded server, blocking client.

The process boundary of the system (ROADMAP: "millions of users").
Clients speak a length-prefixed typed-message protocol
(:mod:`repro.net.protocol`) to a server (:mod:`repro.net.server`) that
serves each connection on a thread of its own, running every statement
through the existing session layer on that thread; the blocking client
(:mod:`repro.net.client`) mirrors the DB-API cursor surface so
``repro.connect(url="repro://host:port")`` is a drop-in for the
embedded path.  See ``docs/NETWORK.md`` for the frame format, the
message table, and the backpressure/drain semantics."""

from repro.net.client import NetConnection, NetCursor, connect_url, parse_url
from repro.net.protocol import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.net.server import (
    ReproServer,
    ServerHandle,
    serve_forever,
    serve_in_thread,
)

__all__ = [
    "NetConnection",
    "NetCursor",
    "connect_url",
    "parse_url",
    "ReproServer",
    "ServerHandle",
    "serve_forever",
    "serve_in_thread",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
]
