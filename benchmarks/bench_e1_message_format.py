"""E1 — Figure 2 message format and the Section 1 capacity claims.

Paper artefacts reproduced:
- Figure 2's exact field widths (verified at the boundaries);
- "supports up to 16.7M sensors, 256 internal-streams/sensor, 64K
  sequence counts and payloads of 64K bytes" (Section 1);
- the codec across payload sizes (the proof-of-concept's core data-path
  operation; E18 times it).
"""

import pytest

from repro.core.message import (
    DataMessage,
    MAX_PAYLOAD_BYTES,
    MessageCodec,
)
from repro.core.streamid import (
    MAX_SENSOR_ID,
    MAX_STREAM_INDEX,
    StreamId,
)

from claims import Table, documents, print_table

CODEC = MessageCodec()


@documents("E1")
def capacity_table() -> Table:
    """Encode/decode at every capacity boundary the paper claims."""
    rows = []
    cases = [
        ("sensors", StreamId(MAX_SENSOR_ID, 0), 0, 0),
        ("streams/sensor", StreamId(0, MAX_STREAM_INDEX), 0, 0),
        ("sequence counts", StreamId(0, 0), 65535, 0),
        ("payload bytes", StreamId(0, 0), 0, MAX_PAYLOAD_BYTES),
    ]
    for claim, stream_id, sequence, payload_bytes in cases:
        message = DataMessage(
            stream_id=stream_id,
            sequence=sequence,
            payload=b"\xa5" * payload_bytes,
        )
        decoded = CODEC.decode(CODEC.encode(message))
        assert decoded == message
        capacity = {
            "sensors": MAX_SENSOR_ID + 1,
            "streams/sensor": MAX_STREAM_INDEX + 1,
            "sequence counts": 65536,
            "payload bytes": MAX_PAYLOAD_BYTES,
        }[claim]
        rows.append([claim, capacity, "ok"])
    return Table(
        "E1: capacity claims (Section 1)",
        ["claim", "capacity", "boundary roundtrip"],
        rows,
    )


def test_capacity_claims():
    capacity_table().show()
    # The paper's headline numbers.
    assert MAX_SENSOR_ID + 1 == 16_777_216
    assert MAX_STREAM_INDEX + 1 == 256
    assert MAX_PAYLOAD_BYTES == 65_535


@pytest.mark.parametrize("payload_bytes", [0, 16, 256, 4096, 65535])
def test_encode_frame_length(payload_bytes):
    message = DataMessage(
        stream_id=StreamId(123456, 7),
        sequence=42,
        payload=b"\x5a" * payload_bytes,
    )
    wire = CODEC.encode(message)
    assert len(wire) == 9 + payload_bytes + 2


@pytest.mark.parametrize("payload_bytes", [0, 16, 256, 4096, 65535])
def test_decode_payload_length(payload_bytes):
    wire = CODEC.encode(
        DataMessage(
            stream_id=StreamId(123456, 7),
            sequence=42,
            payload=b"\x5a" * payload_bytes,
        )
    )
    message = CODEC.decode(wire)
    assert len(message.payload) == payload_bytes


def test_roundtrip_with_all_options():
    message = DataMessage(
        stream_id=StreamId(999, 1),
        sequence=7,
        payload=b"x" * 64,
        fused=True,
        encrypted=True,
        ack_request_id=1234,
        hop_count=2,
        extensions=((2, b"\x00" * 8),),
    )
    assert CODEC.decode(CODEC.encode(message)) == message


def test_header_overhead_fraction():
    """Fixed overhead per message: 9 header + 2 checksum bytes."""
    print_table(
        "E1: fixed overhead vs payload size",
        ["payload B", "overhead B", "overhead fraction"],
        [
            [size, 11, f"{11 / (11 + size):.1%}"]
            for size in (8, 64, 512, 4096)
        ],
    )
