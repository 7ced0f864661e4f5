"""The binary frame envelope.

The gateway's wire is the length-prefixed frame layer of
:mod:`repro.core.protocol` (magic + kind code + payload length); the
JSON gateway payload codecs are fuzzed alongside the rest of the
protocol in ``test_protocol_malformed.py``, but binary frames cannot
ride that JSON corruption corpus — this suite drives the envelope
through its own corruption families (bad magic, unknown codes,
truncation, oversize declarations).
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    FRAME_HEADER,
    FRAME_KINDS,
    FRAME_MAGIC,
    MAX_FRAME_PAYLOAD,
    decode_frame,
    decode_frame_header,
    encode_frame,
)
from repro.exceptions import ProtocolError


class TestFrameRoundTrip:
    @pytest.mark.parametrize("kind", sorted(FRAME_KINDS))
    def test_every_kind_round_trips(self, kind):
        payload = b'{"some":"payload"}'
        kind_out, payload_out, rest = decode_frame(encode_frame(kind, payload))
        assert (kind_out, payload_out, rest) == (kind, payload, b"")

    def test_empty_payload_round_trips(self):
        kind, payload, rest = decode_frame(encode_frame("bye", b""))
        assert (kind, payload, rest) == ("bye", b"", b"")

    def test_concatenated_frames_yield_rest(self):
        stream = encode_frame("hello", b"a") + encode_frame("request", b"bb")
        kind, payload, rest = decode_frame(stream)
        assert (kind, payload) == ("hello", b"a")
        kind, payload, rest = decode_frame(rest)
        assert (kind, payload, rest) == ("request", b"bb", b"")

    def test_header_is_magic_code_length(self):
        frame = encode_frame("answer", b"xyz")
        magic, code, length = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
        assert magic == FRAME_MAGIC
        assert code == FRAME_KINDS["answer"]
        assert length == 3


class TestFrameEncodeErrors:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown gateway frame kind"):
            encode_frame("telepathy", b"")

    def test_oversize_payload_rejected(self):
        huge = b"x" * (MAX_FRAME_PAYLOAD + 1)
        with pytest.raises(ProtocolError, match="payload"):
            encode_frame("answer", huge)


class TestFrameDecodeErrors:
    def test_short_header_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame_header(b"RPG")

    def test_bad_magic_rejected(self):
        header = struct.pack(">4sBI", b"EVIL", FRAME_KINDS["hello"], 0)
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame_header(header)

    def test_unknown_code_rejected(self):
        header = struct.pack(">4sBI", FRAME_MAGIC, 200, 0)
        with pytest.raises(ProtocolError, match="frame"):
            decode_frame_header(header)

    def test_oversize_declared_length_rejected(self):
        header = struct.pack(
            ">4sBI", FRAME_MAGIC, FRAME_KINDS["hello"], MAX_FRAME_PAYLOAD + 1
        )
        with pytest.raises(ProtocolError, match="payload"):
            decode_frame_header(header)

    def test_truncated_payload_rejected(self):
        frame = encode_frame("request", b"0123456789")
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frame(frame[:-3])

    @settings(max_examples=80, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_arbitrary_bytes_never_leak_raw_errors(self, data):
        try:
            decode_frame(data)
        except ProtocolError:
            pass
