"""Protocol robustness: malformed wire input must produce typed ERROR
frames (or a clean close) — never a server crash or hang.  Includes a
seeded fuzz loop over random frame corruption."""

from __future__ import annotations

import random
import socket
import struct
import threading

import pytest

import repro
from repro.net.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    recv_message,
    send_message,
)
from repro.net.server import THREAD_PREFIX, serve_in_thread


def server_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith(THREAD_PREFIX)]


@pytest.fixture(scope="module", autouse=True)
def no_thread_outlives_the_server():
    """Once the module's server is shut down, none of its threads (accept
    or connection, however the abuse ended) is still alive."""
    assert server_threads() == []
    yield
    assert server_threads() == []


@pytest.fixture(scope="module")
def served():
    db = repro.Database()
    db.create_table("t", {"x": "int64"}, {"x": range(500)})
    handle = serve_in_thread(db, max_frame=1 << 20)
    yield handle
    handle.shutdown()
    db.close()


def raw_conn(handle, do_hello=True) -> socket.socket:
    sock = socket.create_connection((handle.host, handle.port), timeout=5)
    if do_hello:
        send_message(sock, {"type": "hello", "version": PROTOCOL_VERSION})
        reply = recv_message(sock)
        assert reply["type"] == "welcome"
    return sock


def server_is_healthy(handle) -> None:
    """The liveness probe after every abuse: a clean query round-trip."""
    with repro.connect(url=handle.url) as conn:
        cur = conn.cursor()
        cur.execute("select count(*) from t")
        assert cur.fetchone() == (500,)


def expect_error_or_close(sock: socket.socket, match: str = "") -> None:
    """The server must answer with an ERROR frame or close the socket —
    anything else (a hang, a non-error frame) fails the test."""
    try:
        reply = recv_message(sock)
    except (ConnectionError, socket.timeout, OSError):
        return                              # clean close: acceptable
    assert reply["type"] == "error", reply
    if match:
        assert match in reply["message"]


class TestMalformedFrames:
    def test_garbage_bytes_get_an_error(self, served):
        sock = raw_conn(served)
        sock.sendall(b"\xde\xad\xbe\xef" * 3)
        expect_error_or_close(sock)
        sock.close()
        server_is_healthy(served)

    def test_http_request_is_rejected(self, served):
        # A browser poking the port: the "length" decodes huge or tiny.
        sock = socket.create_connection((served.host, served.port),
                                        timeout=5)
        sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        expect_error_or_close(sock)
        sock.close()
        server_is_healthy(served)

    def test_truncated_frame_then_eof(self, served):
        sock = raw_conn(served)
        frame = encode_frame({"type": "stats"})
        sock.sendall(frame[: len(frame) // 2])
        sock.close()                        # die mid-frame
        server_is_healthy(served)

    def test_truncated_header_then_eof(self, served):
        sock = raw_conn(served)
        sock.sendall(b"\x00\x00")
        sock.close()
        server_is_healthy(served)

    def test_oversized_frame_announcement_rejected(self, served):
        sock = raw_conn(served)
        # Announce a 512 MiB frame; the server must refuse before
        # reading (far beyond its 1 MiB limit), not buffer it.
        sock.sendall(struct.pack("!I", 512 << 20))
        expect_error_or_close(sock, match="refusing")
        sock.close()
        server_is_healthy(served)

    def test_zero_length_frame_rejected(self, served):
        sock = raw_conn(served)
        sock.sendall(struct.pack("!I", 0))
        expect_error_or_close(sock)
        sock.close()
        server_is_healthy(served)

    def test_unknown_codec_byte_rejected(self, served):
        sock = raw_conn(served)
        sock.sendall(struct.pack("!I", 3) + bytes([9]) + b"{}")
        expect_error_or_close(sock)
        sock.close()
        server_is_healthy(served)


class TestBadMessages:
    def test_unknown_message_type(self, served):
        sock = raw_conn(served)
        send_message(sock, {"type": "frobnicate"})
        expect_error_or_close(sock)
        sock.close()
        server_is_healthy(served)

    def test_server_side_type_from_client(self, served):
        sock = raw_conn(served)
        send_message(sock, {"type": "welcome", "version": 1})
        expect_error_or_close(sock, match="not valid")
        sock.close()
        server_is_healthy(served)

    def test_execute_without_sql_or_name(self, served):
        sock = raw_conn(served)
        send_message(sock, {"type": "execute", "params": [1]})
        expect_error_or_close(sock, match="execute needs")
        sock.close()
        server_is_healthy(served)

    def test_prepare_without_name(self, served):
        sock = raw_conn(served)
        send_message(sock, {"type": "prepare", "sql": "select 1"})
        expect_error_or_close(sock, match="prepare needs")
        sock.close()
        server_is_healthy(served)

    def test_fetch_unknown_result_id(self, served):
        sock = raw_conn(served)
        send_message(sock, {"type": "fetch", "result_id": 999})
        expect_error_or_close(sock, match="no fetchable")
        sock.close()
        server_is_healthy(served)

    @pytest.mark.parametrize("tagged", [
        {"$dt64": "garbage"}, {"$dt64": 5},
        {"$col": "|O", "b64": ""}, {"$col": "<i8", "b64": "AAAAAAAAAA=="}])
    def test_malformed_tagged_param_gets_an_error(self, served, tagged):
        sock = raw_conn(served)
        send_message(sock, {"type": "execute", "params": [tagged],
                            "sql": "select count(*) from t where x > ?"})
        reply = recv_message(sock)   # a typed reply, not a dropped socket
        assert reply["type"] == "error", reply
        # ProtocolError travels as its PEP 249 base class.
        assert reply["error"] == "OperationalError"
        assert "undecodable frame payload" in reply["message"]
        sock.close()
        server_is_healthy(served)

    @pytest.mark.parametrize("fetch", [-3, 0, "abc", 2.5, True, None])
    def test_execute_row_count_must_be_positive_integer(self, served, fetch):
        sock = raw_conn(served)
        send_message(sock, {"type": "execute", "sql": "select x from t",
                            "fetch": fetch})
        reply = recv_message(sock)
        assert reply["type"] == "error", reply
        assert reply["error"] == "ProgrammingError"
        sock.close()
        server_is_healthy(served)

    @pytest.mark.parametrize("n", [-3, 0, "abc", 2.5])
    def test_fetch_row_count_must_be_positive_integer(self, served, n):
        sock = raw_conn(served)
        send_message(sock, {"type": "execute", "sql": "select x from t",
                            "fetch": 2})
        first = recv_message(sock)
        assert first["type"] == "result" and not first["complete"]
        rid = first["result_id"]
        send_message(sock, {"type": "fetch", "result_id": rid, "n": n})
        reply = recv_message(sock)
        assert reply["type"] == "error", reply
        assert reply["error"] == "ProgrammingError"
        # The refused frame moved nothing; no "n" takes the default.
        send_message(sock, {"type": "fetch", "result_id": rid})
        rest = recv_message(sock)
        assert rest["columns"] == [list(range(2, 500))] and rest["complete"]
        sock.close()

    def test_missing_row_count_takes_the_default(self, served):
        sock = raw_conn(served)
        send_message(sock, {"type": "execute", "sql": "select x from t"})
        reply = recv_message(sock)
        assert [len(c) for c in reply["columns"]] == [500] and \
            reply["complete"]
        sock.close()

    def test_no_hello_first(self, served):
        sock = raw_conn(served, do_hello=False)
        send_message(sock, {"type": "execute",
                            "sql": "select count(*) from t"})
        expect_error_or_close(sock, match="hello")
        sock.close()
        server_is_healthy(served)

    def test_wrong_protocol_version(self, served):
        sock = raw_conn(served, do_hello=False)
        send_message(sock, {"type": "hello", "version": 999})
        expect_error_or_close(sock, match="version")
        sock.close()
        server_is_healthy(served)

    def test_version_1_hello_gets_an_interface_error(self, served):
        # Version 1 carried rows, not columns: its HELLO is refused.
        sock = raw_conn(served, do_hello=False)
        send_message(sock, {"type": "hello", "version": 1})
        reply = recv_message(sock)
        assert reply["type"] == "error", reply
        assert reply["error"] == "InterfaceError"
        sock.close()
        server_is_healthy(served)


class TestFuzzedFrames:
    def test_random_frame_corruption_never_kills_the_server(self, served):
        """Flip random bytes in valid frames; after every attempt the
        server must still serve a clean connection."""
        rng = random.Random(0xC0FFEE)
        base = encode_frame({
            "type": "execute",
            "sql": "select count(*) from t where x >= ?",
            "params": [10],
        })
        for attempt in range(25):
            corrupted = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                corrupted[rng.randrange(len(corrupted))] = \
                    rng.randrange(256)
            sock = raw_conn(served)
            sock.settimeout(5)
            try:
                sock.sendall(bytes(corrupted))
                # Three legal outcomes: a typed frame (error *or* a
                # still-valid execute's result), a clean close, or the
                # server waiting for the rest of a longer frame the
                # corrupt header announced (we just hang up on it).
                try:
                    reply = recv_message(sock)
                    assert reply["type"] in ("error", "result"), reply
                except (ConnectionError, socket.timeout, OSError):
                    pass
            finally:
                sock.close()
            if attempt % 5 == 0:
                server_is_healthy(served)
        server_is_healthy(served)

    def test_random_garbage_connections(self, served):
        rng = random.Random(1234)
        for _ in range(10):
            sock = socket.create_connection(
                (served.host, served.port), timeout=5)
            sock.settimeout(5)
            try:
                blob = bytes(rng.randrange(256)
                             for _ in range(rng.randint(1, 200)))
                sock.sendall(blob)
                try:
                    recv_message(sock)
                except Exception:
                    pass
            finally:
                sock.close()
        server_is_healthy(served)

    def test_sessions_do_not_leak_across_abuse(self, served):
        import time

        deadline = time.time() + 10
        while time.time() < deadline:
            if served.server.session_count == 0:
                break
            time.sleep(0.05)
        assert served.server.session_count == 0
