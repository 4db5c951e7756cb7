"""Control-plane framing: encode, reassemble, reject; URL parsing."""

import pytest

from repro.errors import ConfigurationError, TransportError
from repro.transport import (
    CONTROL_FRAME_NAMES,
    ControlFrameAssembler,
    encode_control_frame,
    parse_garnet_url,
)
from repro.transport.framing import (
    LENGTH_PREFIX_BYTES,
    MAX_CONTROL_FRAME,
    RESPONSE_FLAG,
)


class TestEncode:
    @pytest.mark.parametrize("frame_type", sorted(CONTROL_FRAME_NAMES))
    def test_roundtrip_every_frame_kind(self, frame_type):
        body = {"name": CONTROL_FRAME_NAMES[frame_type], "n": frame_type}
        wire = encode_control_frame(frame_type, body)
        frames = ControlFrameAssembler().feed(wire)
        assert frames == [(frame_type, body)]

    def test_response_flag_rides_the_type_byte(self):
        wire = encode_control_frame(0x02 | RESPONSE_FLAG, {"ok": True})
        [(frame_type, body)] = ControlFrameAssembler().feed(wire)
        assert frame_type == 0x82
        assert body == {"ok": True}

    def test_length_prefix_counts_type_plus_body(self):
        wire = encode_control_frame(0x01, {})
        length = int.from_bytes(wire[:LENGTH_PREFIX_BYTES], "big")
        assert length == len(wire) - LENGTH_PREFIX_BYTES
        assert length == 1 + len(b"{}")

    def test_type_must_be_a_byte(self):
        with pytest.raises(TransportError):
            encode_control_frame(0x100, {})

    def test_oversized_body_rejected_at_encode(self):
        with pytest.raises(TransportError):
            encode_control_frame(0x01, {"pad": "x" * MAX_CONTROL_FRAME})


class TestReassembly:
    def test_byte_by_byte_feed(self):
        # The pathological fragmentation: every chunk is one byte. The
        # frame must pop out exactly once, when its last byte lands.
        wire = encode_control_frame(0x04, {"kind": "temp*", "page": 3})
        assembler = ControlFrameAssembler()
        frames = []
        for index in range(len(wire)):
            frames.extend(assembler.feed(wire[index : index + 1]))
            if index < len(wire) - 1:
                assert frames == []
        assert frames == [(0x04, {"kind": "temp*", "page": 3})]
        assert assembler.pending_bytes == 0

    def test_many_frames_in_one_chunk_plus_tail(self):
        first = encode_control_frame(0x01, {"a": 1})
        second = encode_control_frame(0x02, {"b": 2})
        third = encode_control_frame(0x03, {"c": 3})
        blob = first + second + third
        split = len(first) + len(second) + 2  # two bytes into the third
        assembler = ControlFrameAssembler()
        assert assembler.feed(blob[:split]) == [
            (0x01, {"a": 1}),
            (0x02, {"b": 2}),
        ]
        assert assembler.feed(blob[split:]) == [(0x03, {"c": 3})]

    def test_state_carries_across_calls(self):
        wire = encode_control_frame(0x06, {})
        assembler = ControlFrameAssembler()
        assert assembler.feed(wire[:3]) == []
        assert assembler.pending_bytes == 3
        assert assembler.feed(wire[3:]) == [(0x06, {})]

    def test_zero_length_frame_rejected(self):
        assembler = ControlFrameAssembler()
        with pytest.raises(TransportError):
            assembler.feed(b"\x00\x00\x00\x00")

    def test_oversized_length_rejected(self):
        assembler = ControlFrameAssembler()
        huge = (MAX_CONTROL_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(TransportError):
            assembler.feed(huge)

    def test_non_json_body_rejected(self):
        wire = b"\x00\x00\x00\x04\x01not"
        with pytest.raises(TransportError):
            ControlFrameAssembler().feed(wire)

    def test_non_object_body_rejected(self):
        wire = b"\x00\x00\x00\x03\x0142"
        with pytest.raises(TransportError):
            ControlFrameAssembler().feed(wire)


class TestGarnetUrl:
    def test_parses_host_and_port(self):
        assert parse_garnet_url("garnet://127.0.0.1:7341") == (
            "127.0.0.1",
            7341,
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "http://127.0.0.1:7341",
            "garnet://127.0.0.1",
            "garnet://:7341",
            "garnet://host:not-a-port",
            "garnet://host:7341/path",
            "garnet://host:7341?x=1",
        ],
    )
    def test_rejects_malformed_urls(self, bad):
        with pytest.raises(ConfigurationError):
            parse_garnet_url(bad)
