"""A DataMessage remembers its wire frame; the codec hands it back.

The contract under test: ``decode`` keeps the bytes it parsed, ``encode``
keeps the bytes it first produced, a later ``encode`` under the same
checksum setting returns that very object, and nothing else about the
message — equality, hash, repr, pickling, derived copies, the accept set
and error text of the decoder — can tell the difference.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.core.message import DataMessage, MessageCodec
from repro.core.streamid import StreamId
from repro.errors import GarnetError

CODECS = {
    True: MessageCodec(checksum=True),
    False: MessageCodec(checksum=False),
}
SHAPES = {
    "bare": {},
    "ack": {"ack_request_id": 0xBEEF},
    "relayed": {"hop_count": 3},
    "extended": {
        "extensions": ((1, b"\x00\x07\x01"), (9, b""), (200, b"v" * 17))
    },
    "all": {
        "ack_request_id": 7,
        "hop_count": 254,
        "extensions": ((2, b"tlv"),),
        "fused": True,
        "encrypted": True,
    },
}
INPUTS = {"bytes": bytes, "bytearray": bytearray, "memoryview": memoryview}


def make(shape: str) -> DataMessage:
    return DataMessage(
        stream_id=StreamId(0xABCDEF, 0x42),
        sequence=0xFFFE,
        payload=b"opaque-payload\x00\xff",
        **SHAPES[shape],
    )


def reference_frame(shape: str, checksum: bool) -> bytes:
    return CODECS[checksum].encode_reference(make(shape))


def outcome(decode, data):
    try:
        return ("ok", decode(data))
    except GarnetError as exc:
        return (type(exc), str(exc))


def every_frame(test):
    """Every frame shape under both checksum settings."""
    test = pytest.mark.parametrize("shape", list(SHAPES))(test)
    return pytest.mark.parametrize("checksum", [True, False])(test)


@every_frame
@pytest.mark.parametrize("kind", list(INPUTS))
def test_encode_of_decode_is_the_received_frame(shape, checksum, kind):
    codec = CODECS[checksum]
    frame = reference_frame(shape, checksum)
    message = codec.decode(INPUTS[kind](frame))
    assert message == make(shape)
    again = codec.encode(message)
    assert again == frame and type(again) is bytes
    assert codec.encode(message) is again
    if kind == "bytes":
        assert again is frame


@every_frame
def test_first_encode_is_remembered(shape, checksum):
    codec = CODECS[checksum]
    message = make(shape)
    assert message.wire is None
    frame = codec.encode(message)
    assert frame == reference_frame(shape, checksum)
    assert codec.encode(message) is frame


@every_frame
def test_a_frame_kept_under_one_setting_is_not_served_under_the_other(
    shape, checksum
):
    codec, other = CODECS[checksum], CODECS[not checksum]
    frame = reference_frame(shape, checksum)
    for message in (codec.decode(frame), make(shape)):
        codec.encode(message)
        assert other.encode(message) == reference_frame(shape, not checksum)
        # ...and the frame it had first is still the one it keeps.
        assert codec.encode(message) == frame
        assert other.decode(other.encode(message)) == message


@every_frame
def test_derived_copies_never_reuse_the_parents_frame(shape, checksum):
    codec = CODECS[checksum]
    frame = reference_frame(shape, checksum)
    decoded = codec.decode(frame)
    encoded = make(shape)
    codec.encode(encoded)
    for parent in (decoded, encoded):
        for variant in (
            replace(parent),
            replace(parent, sequence=1),
            replace(parent, payload=b"other"),
            parent.with_ack(0x1234),
            parent.with_relay_hop(),
            parent.with_extension(77, b"x"),
            parent.with_replaced_extension(2, b"swapped"),
        ):
            assert variant.wire is None
            fresh = codec.encode(variant)
            assert fresh == codec.encode_reference(variant)
            assert fresh is not frame
            assert codec.decode(fresh) == variant
        assert codec.encode(parent) == frame


@every_frame
def test_value_semantics_ignore_the_remembered_frame(shape, checksum):
    codec = CODECS[checksum]
    plain = make(shape)
    decoded = codec.decode(reference_frame(shape, checksum))
    assert plain.wire is None and decoded.wire is not None
    assert decoded == plain and hash(decoded) == hash(plain)
    assert repr(decoded) == repr(plain) and "wire" not in repr(decoded)
    assert len({plain, decoded}) == 1
    with pytest.raises(TypeError):
        DataMessage(StreamId(1, 0), 0, wire=(b"", True))


@every_frame
def test_pickle_round_trip_survives_the_slot(shape, checksum):
    # Cluster worker processes exchange arrivals over pipes.
    codec = CODECS[checksum]
    frame = reference_frame(shape, checksum)
    for message in (make(shape), codec.decode(frame)):
        clone = pickle.loads(pickle.dumps(message))
        assert clone == message and hash(clone) == hash(message)
        assert codec.encode(clone) == frame


@every_frame
@pytest.mark.parametrize("kind", list(INPUTS))
def test_decode_prefix_remembers_only_its_own_bytes(shape, checksum, kind):
    codec = CODECS[checksum]
    first = reference_frame(shape, checksum)
    second = codec.encode_reference(replace(make(shape), sequence=9))
    buffer = INPUTS[kind](first + second)
    message, consumed = codec.decode_prefix(buffer)
    assert consumed == len(first)
    assert message.wire == (first, checksum)
    assert codec.encode(message) == first
    tail, rest = codec.decode_prefix(buffer[consumed:])
    assert rest == len(second) and codec.encode(tail) == second


def assert_same_as_reference(codec, data):
    fast = outcome(codec.decode, data)
    assert fast == outcome(codec.decode_reference, data)
    if fast[0] == "ok":
        # The layout is canonical: what the decoder accepts, the encoder
        # rebuilds bit for bit — which is why the frame may be kept.
        assert codec.encode(fast[1]) == data
        assert codec.encode_reference(fast[1]) == data
    return fast[0] == "ok"


@every_frame
def test_every_bit_flip_and_truncation_agrees_with_the_reference(
    shape, checksum
):
    codec = CODECS[checksum]
    frame = reference_frame(shape, checksum)
    accepted = 0
    for bit in range(len(frame) * 8):
        mutant = bytearray(frame)
        mutant[bit // 8] ^= 0x80 >> (bit % 8)
        accepted += assert_same_as_reference(codec, bytes(mutant))
    for length in range(len(frame)):
        assert not assert_same_as_reference(codec, frame[:length])
    assert_same_as_reference(codec, frame + b"\x00")
    if checksum:
        assert accepted == 0  # CRC-16 catches every single-bit error


def test_seeded_random_mutations_agree_with_the_reference():
    rng = random.Random(0x6A7E)
    frames = [
        (CODECS[checksum], reference_frame(shape, checksum))
        for checksum in (True, False)
        for shape in SHAPES
    ]
    accepted = 0
    for _ in range(20_000):
        codec, frame = rng.choice(frames)
        mutant = bytearray(frame)
        for _ in range(rng.randint(1, 4)):
            action = rng.randrange(4)
            at = rng.randrange(len(mutant)) if mutant else 0
            if action == 0 and mutant:
                mutant[at] = rng.randrange(256)
            elif action == 1:
                mutant.insert(at, rng.randrange(256))
            elif action == 2 and mutant:
                del mutant[at]
            else:
                mutant += rng.randbytes(rng.randint(1, 3))
        accepted += assert_same_as_reference(codec, bytes(mutant))
    # The bare codec accepts many mutants (any payload byte may change),
    # so the re-encode half of the check is not vacuous.
    assert accepted > 1_000
