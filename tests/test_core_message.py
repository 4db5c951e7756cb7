"""The Figure 2 data-message codec, bit for bit."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flags import ExtensionType, HeaderFlags
from repro.core.message import (
    CHECKSUM_BYTES,
    DataMessage,
    FIXED_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    MessageCodec,
    make_request_status_extension,
    parse_request_status_extension,
)
from repro.core.streamid import StreamId
from repro.util.crc import crc16_ccitt
from repro.errors import (
    ChecksumError,
    CodecError,
    FieldRangeError,
    GarnetError,
    TruncatedMessageError,
)

CODEC = MessageCodec()


def make_message(**overrides) -> DataMessage:
    defaults = dict(
        stream_id=StreamId(1234, 5),
        sequence=42,
        payload=b"payload-bytes",
    )
    defaults.update(overrides)
    return DataMessage(**defaults)


class TestFixedLayout:
    def test_wire_layout_matches_figure_2(self):
        message = make_message(payload=b"AB")
        wire = CODEC.encode(message)
        # bit 0-8: header; 8-40: StreamID; 40-56: sequence; 56-72: size.
        assert wire[0] >> 5 == 1  # version
        assert int.from_bytes(wire[1:5], "big") == StreamId(1234, 5).pack()
        assert int.from_bytes(wire[5:7], "big") == 42
        assert int.from_bytes(wire[7:9], "big") == 2
        assert wire[9:-2] == b"AB"
        assert int.from_bytes(wire[-2:], "big") == crc16_ccitt(wire[:-2])
        assert FIXED_HEADER_BYTES == 9  # 72 bits

    def test_minimal_message_size(self):
        wire = CODEC.encode(make_message(payload=b""))
        assert len(wire) == FIXED_HEADER_BYTES + CHECKSUM_BYTES


class TestRoundtrip:
    def test_plain(self):
        message = make_message()
        assert CODEC.decode(CODEC.encode(message)) == message

    def test_all_optional_fields(self):
        message = make_message(
            sequence=65535,
            fused=True,
            encrypted=True,
            ack_request_id=0xBEEF,
            hop_count=2,
            extensions=(
                (int(ExtensionType.SOURCE_TIMESTAMP), b"\x00" * 8),
                (int(ExtensionType.FUSION_COUNT), b"\x00\x05"),
            ),
        )
        decoded = CODEC.decode(CODEC.encode(message))
        assert decoded == message
        assert decoded.flags == (
            HeaderFlags.ACK
            | HeaderFlags.FUSED
            | HeaderFlags.RELAYED
            | HeaderFlags.EXTENDED
            | HeaderFlags.ENCRYPTED
        )

    def test_max_payload(self):
        message = make_message(payload=b"\xab" * MAX_PAYLOAD_BYTES)
        assert CODEC.decode(CODEC.encode(message)).payload == message.payload

    def test_64k_sequence_space(self):
        for sequence in (0, 1, 65535):
            message = make_message(sequence=sequence)
            assert CODEC.decode(CODEC.encode(message)).sequence == sequence
        with pytest.raises(FieldRangeError):
            CODEC.encode(make_message(sequence=65536))

    def test_payload_over_64k_rejected(self):
        with pytest.raises(CodecError):
            CODEC.encode(make_message(payload=b"x" * (MAX_PAYLOAD_BYTES + 1)))

    def test_decode_prefix_handles_concatenated_messages(self):
        first = make_message(sequence=1)
        second = make_message(sequence=2, payload=b"other")
        blob = CODEC.encode(first) + CODEC.encode(second)
        decoded_first, consumed = CODEC.decode_prefix_reference(blob)
        decoded_second, total = CODEC.decode_prefix_reference(blob[consumed:])
        assert decoded_first == first
        assert decoded_second == second
        assert consumed + total == len(blob)

    @given(
        st.integers(0, (1 << 24) - 1),
        st.integers(0, 255),
        st.integers(0, 65535),
        st.binary(max_size=256),
        st.booleans(),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, 65535)),
        st.one_of(st.none(), st.integers(0, 255)),
    )
    def test_roundtrip_property(
        self, sensor, index, seq, payload, fused, encrypted, ack, hops
    ):
        message = DataMessage(
            stream_id=StreamId(sensor, index),
            sequence=seq,
            payload=payload,
            fused=fused,
            encrypted=encrypted,
            ack_request_id=ack,
            hop_count=hops,
        )
        assert CODEC.decode(CODEC.encode(message)) == message


HEADER_FIELDS = dict(
    stream_id=st.builds(
        StreamId, st.integers(0, (1 << 24) - 1), st.integers(0, 255)
    ),
    sequence=st.integers(0, 65535),
    payload=st.binary(max_size=40),
    fused=st.booleans(),
    encrypted=st.booleans(),
)
#: Half in the common shape (no optional field), half over every flag.
MESSAGES = st.builds(DataMessage, **HEADER_FIELDS) | st.builds(
    DataMessage,
    **HEADER_FIELDS,
    ack_request_id=st.none() | st.integers(0, 65535),
    hop_count=st.none() | st.integers(0, 255),
    extensions=st.lists(
        st.tuples(st.integers(0, 255), st.binary(max_size=6)), max_size=2
    ).map(tuple),
)


@st.composite
def received_frames(draw):
    """A codec and a frame it encoded: whole, one byte changed, or cut."""
    codec = CODEC
    frame = codec.encode(draw(MESSAGES))
    at = draw(st.integers(0, len(frame) - 1))
    return codec, draw(
        st.sampled_from(
            [
                frame,
                frame[:at] + bytes([draw(st.integers(0, 255))]) + frame[at + 1 :],
                frame[:at],
            ]
        )
    )


class TestHeaderOnlyDecode:
    """``decode`` parses the common shape from the header alone; nothing
    observable may tell its messages from the reference decoder's."""

    @settings(max_examples=400, deadline=None)
    @given(received_frames())
    def test_decode_agrees_with_the_reference(self, case):
        codec, frame = case
        try:
            expected = codec.decode_reference(frame)
        except GarnetError as exc:
            with pytest.raises(type(exc)):
                codec.decode(frame)
            return
        codec.decode(frame)  # a stream's first frame interns its id
        # Each probe on a fresh decode: the first read of a flag-derived
        # field may come through any of them.
        probes = (
            lambda message: message,
            hash,
            repr,
            replace,
            lambda message: replace(message, sequence=0),
            lambda message: message.flags,
        )
        for probe in probes:
            assert probe(codec.decode(frame)) == probe(expected)

    def test_the_common_shape_sets_only_the_header_fields(self):
        frame = CODEC.encode(make_message(fused=True))
        CODEC.decode(frame)  # a stream's first frame interns its id
        message = CODEC.decode(frame)

        def unset():
            # The slots themselves, past the lookup that fills them in.
            left = []
            for name in DataMessage.__slots__:
                try:
                    DataMessage.__dict__[name].__get__(message)
                except AttributeError:
                    left.append(name)
            return left

        assert unset() == [
            "fused", "encrypted", "ack_request_id", "hop_count",
            "extensions", "version",
        ]
        assert (message.fused, message.encrypted) == (True, False)
        assert unset() == ["ack_request_id", "hop_count", "extensions", "version"]
        assert message.wire is frame
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            message.nope


class TestChecksum:
    def test_corruption_detected(self):
        wire = bytearray(CODEC.encode(make_message()))
        wire[10] ^= 0xFF
        with pytest.raises(ChecksumError):
            CODEC.decode(bytes(wire))

    @pytest.mark.parametrize("fields", [{}, {"hop_count": 1}])
    def test_a_rejected_frame_costs_one_crc_pass(self, monkeypatch, fields):
        # Through decode (header-only, or the reference for a RELAYED
        # frame) and through walk.
        import repro.core.message as message_module

        passes = []
        for name in ("crc_hqx", "crc16_ccitt_reference"):
            real = getattr(message_module, name)
            monkeypatch.setattr(
                message_module,
                name,
                lambda *args, real=real: passes.append(args) or real(*args),
            )
        frame = CODEC.encode(make_message(**fields))
        CODEC.decode(frame)  # a stream's first frame interns its id
        corrupt = frame[:-1] + bytes([frame[-1] ^ 1])
        passes.clear()
        with pytest.raises(ChecksumError) as refused:
            CODEC.decode(corrupt)
        assert len(passes) == 1
        assert str(refused.value) == (
            f"CRC mismatch: stated 0x{frame[-2] << 8 | frame[-1] ^ 1:04x}, "
            f"computed 0x{crc16_ccitt(frame[:-2]):04x}"
        )
        passes.clear()
        assert CODEC.walk([corrupt]) == ([], 1)
        assert len(passes) == 1

    def test_every_byte_position_protected(self):
        wire = CODEC.encode(make_message(payload=b"xy"))
        for index in range(len(wire)):
            corrupted = bytearray(wire)
            corrupted[index] ^= 0x01
            with pytest.raises(CodecError):
                CODEC.decode(bytes(corrupted))


class TestMalformedInput:
    def test_truncated_header(self):
        with pytest.raises(TruncatedMessageError):
            CODEC.decode(b"\x20\x00")

    def test_truncated_payload(self):
        wire = CODEC.encode(make_message(payload=b"full payload"))
        with pytest.raises(TruncatedMessageError):
            CODEC.decode(wire[:-4])

    def test_trailing_bytes_rejected(self):
        wire = CODEC.encode(make_message())
        with pytest.raises(CodecError):
            CODEC.decode(wire + b"\x00")

    def test_wrong_version_rejected(self):
        wire = bytearray(CODEC.encode(make_message()))
        wire[0] = (wire[0] & 0b00011111) | (2 << 5)
        with pytest.raises(CodecError):
            CODEC.decode(bytes(wire))

    def test_extended_flag_with_zero_extensions_rejected(self):
        wire = bytearray(CODEC.encode(make_message(payload=b"")))
        wire[0] |= int(HeaderFlags.EXTENDED)
        wire.insert(9, 0)  # extension count 0
        with pytest.raises(CodecError):
            CODEC.decode(bytes(wire))

    def test_empty_input(self):
        with pytest.raises(TruncatedMessageError):
            CODEC.decode(b"")

    def test_oversized_extension_rejected_at_encode(self):
        with pytest.raises(CodecError):
            CODEC.encode(make_message(extensions=((1, b"x" * 256),)))


class TestHelpers:
    def test_with_ack(self):
        message = make_message().with_ack(99)
        assert message.ack_request_id == 99
        assert message.flags & HeaderFlags.ACK

    def test_with_relay_hop_accumulates(self):
        # A RELAYED frame from the field reads as relayed, its hop count
        # and trace intact.
        message = make_message()
        assert not message.is_relayed
        frame = CODEC.encode(
            replace(message, hop_count=2).with_extension(
                ExtensionType.HOP_TRACE, b"\x07\x09"
            )
        )
        assert frame[0] & HeaderFlags.RELAYED
        relayed = CODEC.decode(frame)
        assert relayed.is_relayed
        assert relayed.hop_count == 2
        assert relayed.find_extension(ExtensionType.HOP_TRACE) == b"\x07\x09"
        assert not CODEC.decode(CODEC.encode(message)).is_relayed

    def test_find_extension(self):
        message = make_message().with_extension(5, b"abc")
        assert message.find_extension(5) == b"abc"
        assert message.find_extension(6) is None

    def test_request_status_extension_roundtrip(self):
        blob = make_request_status_extension(0x1234, 2)
        assert parse_request_status_extension(blob) == (0x1234, 2)

    def test_request_status_bad_length(self):
        with pytest.raises(CodecError):
            parse_request_status_extension(b"\x00\x00")

    def test_messages_are_immutable(self):
        message = make_message()
        with pytest.raises(AttributeError):
            message.sequence = 1  # type: ignore[misc]


class TestFrameWalk:
    """``MessageCodec.walk`` and the ``FrameRun`` it feeds, directly."""

    A, B = StreamId(71, 0), StreamId(71, 1)

    def frames(self, *shapes, **fields):
        frames = [
            CODEC.encode(DataMessage(stream, sequence, b"x" * sequence, **fields))
            for stream, sequence in shapes
        ]
        for frame in frames:
            CODEC.decode(frame)  # interns each stream word
        return frames

    def test_interleaved_streams_are_cut_into_stretches_without_messages(self):
        frames = self.frames((self.A, 1), (self.B, 2), (self.B, 3), (self.A, 4))
        stretches, rejected = CODEC.walk(frames)
        assert rejected == 0
        assert [(s[0], list(s[1]), *s[2:]) for s in stretches] == [
            (self.A, [frames[0]], [1], 1, None),
            (self.B, frames[1:3], [2, 3], 5, None),
            (self.A, [frames[3]], [4], 4, None),
        ]

    def test_a_refused_frame_drops_out_and_its_neighbours_join(self):
        frames = self.frames((self.A, 1), (self.B, 2), (self.A, 3))
        frames[1] = frames[1][:-1] + bytes([frames[1][-1] ^ 1])
        stretches, rejected = CODEC.walk(frames)
        assert rejected == 1
        [(stream, walked, sequences, payload, messages)] = stretches
        assert (stream, list(walked), sequences, payload, messages) == (
            self.A, [frames[0], frames[2]], [1, 3], 4, None,
        )

    def test_a_flagged_frame_has_the_whole_datagram_decoded(self):
        frames = self.frames((self.A, 1), (self.A, 2))
        frames += self.frames((self.A, 3), hop_count=1)
        [(stream, walked, sequences, payload, messages)] = CODEC.walk(frames)[0]
        assert messages == [CODEC.decode(frame) for frame in frames]
        assert (stream, walked, sequences, payload) == (self.A, frames, [1, 2, 3], 6)

    @pytest.mark.parametrize("flagged", [False, True])
    def test_a_kept_run_is_what_the_window_lets_through(self, flagged):
        from repro.core.envelopes import FrameRun
        from repro.util.ids import SequenceWindow

        frames = self.frames((self.A, 1), (self.A, 2))
        frames += self.frames((self.A, 3), hop_count=1 if flagged else None)
        [stretch] = CODEC.walk(frames)[0]
        run = FrameRun(stretch[0], 5.0, *stretch[1:])
        window = SequenceWindow(64)
        window.keep([2])
        kept, refused = run.kept(window)
        assert refused == 1
        assert (kept.frames, kept.sequences, kept.payload) == (
            [frames[0], frames[2]], [1, 3], 4,
        )
        assert [arrival.message for arrival in kept] == [
            CODEC.decode(frames[0]), CODEC.decode(frames[2]),
        ]
        assert (kept.messages is None) is not flagged
