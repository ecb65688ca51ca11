"""Unit tests for the wire protocol: framing, tagging, typed errors."""

from __future__ import annotations

import datetime
import json

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
    _column_to_wire,
    decode_payload,
    encode_frame,
    error_message,
    raise_wire_error,
    split_header,
)


def roundtrip(value):
    """*value* as a peer decodes it after one trip through a frame."""
    frame = encode_frame({"type": "rows", "value": value})
    return decode_payload(frame[4], frame[5:])["value"]


class TestValueTagging:
    def test_scalars_pass_through(self):
        for v in (1, 1.5, "x", True, None):
            assert roundtrip(v) == v

    def test_numpy_scalars_degrade_to_python(self):
        for value, want in ((np.int64(7), 7), (np.float64(2.5), 2.5),
                            (np.str_("hi"), "hi"), (np.bool_(True), True)):
            out = roundtrip(value)
            assert type(out) is type(want) and out == want

    def test_datetime64_roundtrip(self):
        # Dates decode to what .item() gives, as an embedded cursor
        # returns them; values Python cannot hold stay numpy.
        for value in (np.datetime64("1998-12-01"),
                      datetime.date(1998, 12, 1),
                      np.datetime64("1998-12-01T10:20:30"),
                      datetime.datetime(1998, 12, 1, 10, 20, 30, 5),
                      np.datetime64("1998-12", "M")):
            out = roundtrip(value)
            want = value.item() if isinstance(value, np.generic) else value
            assert type(out) is type(want) and out == want
        ns = np.datetime64("1998-12-01T00:00:00.000000001")
        out = roundtrip(ns)
        assert isinstance(out, np.datetime64) and out == ns

    def test_bytes_roundtrip(self):
        assert roundtrip(b"\x00\xffbin") == b"\x00\xffbin"

    def test_nested_structures(self):
        msg = {
            "params": {"date": np.datetime64("1995-03-15"),
                       "modes": ["MAIL", "SHIP"]},
            "rows": [[np.int64(1), 2.5], [np.int64(2), 3.5]],
        }
        out = roundtrip(msg)
        assert out["params"]["date"] == np.datetime64("1995-03-15")
        assert out["rows"][0] == [1, 2.5]

    @pytest.mark.parametrize("column", [
        np.array([True, False]),
        np.array([-1, 2**40], dtype=">i8"),
        np.array([0, 2**32 - 1], dtype="uint32"),
        np.array([1.5, np.nan, -np.inf], dtype="float32"),
        np.array([3, -2, "NaT"], dtype="timedelta64[D]"),
        np.array(["1998-12-01", "NaT"], dtype="datetime64[D]"),
        np.array(["1998-12-01T10:20:30"], dtype="datetime64[s]"),
        np.array(["1998-12-01T00:00:00.000000001"], dtype="datetime64[ns]"),
        np.array([b"a\x00b", b""], dtype="S3"),
        np.array(["ab", "", "\u00e9\u4e2d"], dtype="U4"),
        np.array([], dtype="int64"),
        np.array([], dtype="U1"),
    ], ids=lambda c: c.dtype.str)
    def test_column_roundtrip_is_tolist(self, column):
        assert _column_to_wire(column)["$col"] == column.dtype.str
        want = [(type(c), repr(c)) for c in column.tolist()]
        assert [(type(c), repr(c)) for c in roundtrip(column)] == want

    def test_object_column_goes_cell_by_cell(self):
        column = np.array([1, "x", None], dtype=object)
        assert _column_to_wire(column) == [1, "x", None]
        assert roundtrip(column) == [1, "x", None]

    @pytest.mark.parametrize("tagged", [
        {"$col": "|O", "b64": "AAAAAAAAAAA="},          # object
        {"$col": "|V8", "b64": "AAAAAAAAAAA="},         # void
        {"$col": "<i4,<i4", "b64": "AAAAAAAAAAA="},     # structured
        {"$col": "no-such-dtype", "b64": ""},
        {"$col": "|S0", "b64": ""},                     # zero item size
        {"$col": "<i8", "b64": "not base64!"},
        {"$col": "<i8", "b64": "AAAAAAAAAA=="},         # 7 bytes
        {"$col": "<i8", "list": [1, 2]},                # wrong payload
        {"$col": "<U2", "list": "ab"},
        {"$col": 8, "b64": ""},
    ])
    def test_malformed_column_is_a_protocol_error(self, tagged):
        body = json.dumps({"type": "rows", "columns": [tagged]}).encode()
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_payload(CODEC_JSON, body)

    def test_unencodable_type_raises(self):
        with pytest.raises(ProtocolError, match="not wire-encodable"):
            encode_frame({"type": "rows", "value": object()})


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

    @pytest.mark.parametrize("message", [
        {"type": "execute", "params": [object()]},
        {"type": "execute", "params": [np.timedelta64(3, "D")]},
        {"type": "execute", "params": {(1, 2): 3}},
    ])
    def test_unencodable_message_rejected_on_encode(self, message):
        with pytest.raises(ProtocolError):
            encode_frame(message)

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
