"""A DataMessage remembers its wire frame; the codec hands it back.

The contract under test: ``decode`` keeps the bytes it parsed, ``encode``
keeps the bytes it first produced, a later ``encode`` returns that very
object, and nothing else about the message — equality, hash, repr, pickling, derived copies, the accept set
and error text of the decoder — can tell the difference.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.core.message import DataMessage, MessageCodec
from repro.core.streamid import StreamId
from repro.errors import GarnetError
from repro.util.crc import crc16_ccitt

CODEC = MessageCodec()
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


def reference_frame(shape: str) -> bytes:
    return CODEC.encode_reference(make(shape))


def outcome(decode, data):
    try:
        return ("ok", decode(data))
    except GarnetError as exc:
        return (type(exc), str(exc))


def every_frame(test):
    """Every frame shape. Each id ends in ``-True`` (the frame carries its
    CRC-16), so the test ids stay stable."""
    return pytest.mark.parametrize(
        "shape", list(SHAPES), ids=[f"{shape}-True" for shape in SHAPES]
    )(test)


@every_frame
@pytest.mark.parametrize("kind", list(INPUTS))
def test_encode_of_decode_is_the_received_frame(shape, kind):
    frame = reference_frame(shape)
    message = CODEC.decode(INPUTS[kind](frame))
    assert message == make(shape)
    again = CODEC.encode(message)
    assert again == frame and type(again) is bytes
    assert CODEC.encode(message) is again
    if kind == "bytes":
        assert again is frame


@every_frame
def test_first_encode_is_remembered(shape):
    message = make(shape)
    assert message.wire is None
    frame = CODEC.encode(message)
    assert frame == reference_frame(shape)
    assert CODEC.encode(message) is frame


@every_frame
def test_derived_copies_never_reuse_the_parents_frame(shape):
    frame = reference_frame(shape)
    decoded = CODEC.decode(frame)
    encoded = make(shape)
    CODEC.encode(encoded)
    for parent in (decoded, encoded):
        for variant in (
            replace(parent),
            replace(parent, sequence=1),
            replace(parent, payload=b"other"),
            parent.with_ack(0x1234),
            replace(parent, hop_count=(parent.hop_count or 0) + 1),
            parent.with_extension(77, b"x"),
            replace(parent, extensions=((2, b"swapped"),)),
        ):
            assert variant.wire is None
            fresh = CODEC.encode(variant)
            assert fresh == CODEC.encode_reference(variant)
            assert fresh is not frame
            assert CODEC.decode(fresh) == variant
        assert CODEC.encode(parent) == frame


@every_frame
def test_value_semantics_ignore_the_remembered_frame(shape):
    plain = make(shape)
    decoded = CODEC.decode(reference_frame(shape))
    assert plain.wire is None and decoded.wire is not None
    assert decoded == plain and hash(decoded) == hash(plain)
    assert repr(decoded) == repr(plain) and "wire" not in repr(decoded)
    assert len({plain, decoded}) == 1
    with pytest.raises(TypeError):
        DataMessage(StreamId(1, 0), 0, wire=b"")


@every_frame
def test_pickle_round_trip_survives_the_slot(shape):
    # Cluster worker processes exchange arrivals over pipes.
    frame = reference_frame(shape)
    for message in (make(shape), CODEC.decode(frame)):
        clone = pickle.loads(pickle.dumps(message))
        assert clone == message and hash(clone) == hash(message)
        assert CODEC.encode(clone) == frame


@every_frame
@pytest.mark.parametrize("kind", list(INPUTS))
def test_decode_remembers_its_frame_as_bytes(shape, kind):
    """Whichever path parses it — header-only or the reference — a frame
    held as bytes, bytearray or memoryview is remembered as equal bytes."""
    frame = reference_frame(shape)
    message = CODEC.decode(INPUTS[kind](frame))
    assert message == make(shape)
    assert message.wire == frame and type(message.wire) is bytes
    assert CODEC.encode(message) == frame


def assert_same_as_reference(data):
    fast = outcome(CODEC.decode, data)
    assert fast == outcome(CODEC.decode_reference, data)
    if fast[0] == "ok":
        # The layout is canonical: what the decoder accepts, the encoder
        # rebuilds bit for bit — which is why the frame may be kept.
        assert CODEC.encode(fast[1]) == data
        assert CODEC.encode_reference(fast[1]) == data
    return fast[0] == "ok"


def reseal(frame: bytearray) -> None:
    """Rewrite the CRC over what precedes it, so the checks behind the
    CRC decide the frame."""
    frame[-2:] = crc16_ccitt(frame[:-2]).to_bytes(2, "big")


@pytest.mark.parametrize("crc_judges", [True, False])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_every_bit_flip_and_truncation_agrees_with_the_reference(
    shape, crc_judges
):
    """Without ``crc_judges`` each flipped frame is re-sealed, so the
    header, flag and length checks alone accept or refuse it."""
    frame = reference_frame(shape)
    accepted = 0
    for bit in range(len(frame) * 8):
        mutant = bytearray(frame)
        mutant[bit // 8] ^= 0x80 >> (bit % 8)
        if not crc_judges:
            reseal(mutant)
        accepted += assert_same_as_reference(bytes(mutant))
    for length in range(len(frame)):
        assert not assert_same_as_reference(frame[:length])
    assert_same_as_reference(frame + b"\x00")
    # CRC-16 catches every single-bit error; a re-sealed payload flip
    # is a well-formed frame.
    assert (accepted == 0) is crc_judges


def test_seeded_random_mutations_agree_with_the_reference():
    rng = random.Random(0x6A7E)
    frames = [reference_frame(shape) for shape in SHAPES]
    accepted = 0
    for _ in range(20_000):
        frame = rng.choice(frames)
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
        if rng.random() < 0.5 and len(mutant) > 2:
            reseal(mutant)
        accepted += assert_same_as_reference(bytes(mutant))
    # A re-sealed mutant whose header still adds up is accepted (any
    # payload byte may change), so the re-encode half is not vacuous.
    assert accepted > 1_000
