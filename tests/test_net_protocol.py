"""Unit tests for the wire protocol: framing, tagging, typed errors."""

from __future__ import annotations

import datetime

import numpy as np
import pytest

from repro.errors import (
    CatalogError,
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from repro.net.client import parse_url
from repro.net.protocol import (
    CODEC_JSON,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_payload,
    encode_frame,
    error_message,
    from_wire,
    raise_wire_error,
    split_header,
    to_wire,
)


class TestValueTagging:
    def test_scalars_pass_through(self):
        for v in (1, 1.5, "x", True, None):
            assert from_wire(to_wire(v)) == v

    def test_numpy_scalars_degrade_to_python(self):
        assert to_wire(np.int64(7)) == 7
        assert to_wire(np.float64(2.5)) == 2.5
        assert to_wire(np.str_("hi")) == "hi"
        assert to_wire(np.bool_(True)) is True

    def test_datetime64_roundtrip(self):
        # Dates decode to what .item() gives, as an embedded cursor
        # returns them; values Python cannot hold stay numpy.
        for value in (np.datetime64("1998-12-01"),
                      datetime.date(1998, 12, 1),
                      np.datetime64("1998-12-01T10:20:30"),
                      datetime.datetime(1998, 12, 1, 10, 20, 30, 5),
                      np.datetime64("1998-12", "M")):
            out = from_wire(to_wire(value))
            want = value.item() if isinstance(value, np.generic) else value
            assert type(out) is type(want) and out == want
        ns = np.datetime64("1998-12-01T00:00:00.000000001")
        out = from_wire(to_wire(ns))
        assert isinstance(out, np.datetime64) and out == ns

    def test_bytes_roundtrip(self):
        assert from_wire(to_wire(b"\x00\xffbin")) == b"\x00\xffbin"

    def test_nested_structures(self):
        msg = {
            "params": {"date": np.datetime64("1995-03-15"),
                       "modes": ["MAIL", "SHIP"]},
            "rows": [[np.int64(1), 2.5], [np.int64(2), 3.5]],
        }
        out = from_wire(to_wire(msg))
        assert out["params"]["date"] == np.datetime64("1995-03-15")
        assert out["rows"][0] == [1, 2.5]

    def test_unencodable_type_raises(self):
        with pytest.raises(ProtocolError):
            to_wire(object())


class TestFraming:
    def test_roundtrip_json(self):
        frame = encode_frame({"type": "stats"})
        length = split_header(frame[:4])
        assert length == len(frame) - 4
        assert frame[4] == CODEC_JSON       # the only codec byte
        msg = decode_payload(frame[4], frame[5:])
        assert msg == {"type": "stats"}

    def test_oversized_frame_rejected_on_encode(self):
        big = {"type": "execute", "sql": "x" * 4096}
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(big, max_frame=1024)

    def test_oversized_length_prefix_rejected_before_read(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="refusing to read"):
            split_header(header)

    def test_zero_length_frame_rejected(self):
        with pytest.raises(ProtocolError):
            split_header((0).to_bytes(4, "big"))

    def test_unknown_codec_rejected(self):
        with pytest.raises(ProtocolError, match="codec"):
            decode_payload(42, b"{}")

    def test_garbage_payload_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_payload(CODEC_JSON, b"\x00\x01\x02 not json")

    def test_untyped_payload_rejected(self):
        with pytest.raises(ProtocolError, match="typed message"):
            decode_payload(CODEC_JSON, b'{"no_type": 1}')

    def test_unknown_message_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_payload(CODEC_JSON, b'{"type": "frobnicate"}')


class TestTypedErrors:
    def test_dbapi_class_name_travels(self):
        msg = error_message(ProgrammingError("bad sql"))
        assert msg["error"] == "ProgrammingError"
        with pytest.raises(ProgrammingError, match="bad sql"):
            raise_wire_error(msg)

    def test_engine_subclass_keeps_its_name(self):
        # CatalogError is in repro.errors and on the DB-API hierarchy,
        # so the precise class survives the wire.
        msg = error_message(CatalogError("no such table"))
        with pytest.raises(CatalogError):
            raise_wire_error(msg)

    def test_foreign_exception_degrades_to_operational(self):
        msg = error_message(ValueError("boom"))
        assert msg["error"] == "OperationalError"
        with pytest.raises(OperationalError, match="boom"):
            raise_wire_error(msg)

    def test_unknown_error_name_still_raises_dbapi(self):
        from repro.errors import DatabaseError

        with pytest.raises(DatabaseError):
            raise_wire_error({"type": "error", "error": "NoSuchClass",
                              "message": "x"})


class TestUrlParsing:
    def test_host_port(self):
        assert parse_url("repro://127.0.0.1:6414") == ("127.0.0.1", 6414)

    def test_default_port(self):
        from repro.net.protocol import DEFAULT_PORT

        assert parse_url("repro://dbhost") == ("dbhost", DEFAULT_PORT)

    def test_trailing_slash(self):
        assert parse_url("repro://h:1/") == ("h", 1)

    def test_bad_scheme_rejected(self):
        with pytest.raises(InterfaceError, match="bad connection url"):
            parse_url("postgres://h:5432")

    def test_garbage_rejected(self):
        with pytest.raises(InterfaceError):
            parse_url("repro://")
