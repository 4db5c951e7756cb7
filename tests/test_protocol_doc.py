"""docs/protocol.md stays truthful: its normative numbers are asserted
against the implementation, so the spec cannot silently drift."""

import pathlib
import re

import dataclasses

from repro.cluster import (
    INGRESS_INBOX,
    LINK_INBOX_PREFIX,
    InterestUpdate,
    RemoteDelivery,
    ReplayedPublish,
)
from repro.core.control import (
    ControlCodec,
    StreamUpdateCommand,
    StreamUpdateRequest,
)
from repro.core.flags import ExtensionType, HeaderFlags
from repro.core.message import DataMessage, MessageCodec
from repro.core.streamid import StreamId, VIRTUAL_SENSOR_FLOOR

DOC = (
    pathlib.Path(__file__).resolve().parent.parent / "docs" / "protocol.md"
).read_text()


def test_worked_example_bytes_match_codec():
    wire = MessageCodec().encode(
        DataMessage(
            stream_id=StreamId(1234, 5), sequence=42, payload=b"AB"
        )
    )
    documented = "20 00 04 D2 05 00 2A 00 02 41 42 54 7F"
    assert wire.hex(" ").upper() == documented
    assert documented in DOC


def test_flag_values_match_doc():
    assert int(HeaderFlags.ACK) == 0x10
    assert int(HeaderFlags.FUSED) == 0x08
    assert int(HeaderFlags.RELAYED) == 0x04
    assert int(HeaderFlags.EXTENDED) == 0x02
    assert int(HeaderFlags.ENCRYPTED) == 0x01
    for name, value in [
        ("ACK", "0x10"),
        ("FUSED", "0x08"),
        ("RELAYED", "0x04"),
        ("EXTENDED", "0x02"),
        ("ENCRYPTED", "0x01"),
    ]:
        assert re.search(rf"\*\*{name}\*\* \({value}\)", DOC), name


def test_extension_type_table_matches_enum():
    for member in ExtensionType:
        assert f"| {member.value} | {member.name} |" in DOC, member.name


def test_command_table_matches_enum():
    for member in StreamUpdateCommand:
        assert f"| {member.value} | {member.name} |" in DOC, member.name


def test_control_marker_byte_matches_doc():
    wire = ControlCodec().encode(
        StreamUpdateRequest(
            request_id=1,
            target=StreamId(1, 0),
            command=StreamUpdateCommand.PING,
        )
    )
    assert wire[0] == 0xC1
    assert "0xC1 for version 1" in DOC


def test_virtual_floor_matches_doc():
    assert VIRTUAL_SENSOR_FLOOR == 0xF00000
    assert "0xF00000" in DOC


def test_cluster_inbox_names_match_doc():
    assert LINK_INBOX_PREFIX == "garnet.cluster.link."
    assert INGRESS_INBOX == "garnet.cluster.ingress"
    assert "`garnet.cluster.link.<name>`" in DOC
    assert "`garnet.cluster.ingress`" in DOC


def test_cluster_frame_fields_match_doc():
    # The documented "(field, field)" signatures are the dataclass
    # fields, in order.
    for frame in (RemoteDelivery, ReplayedPublish, InterestUpdate):
        fields = ", ".join(
            f.name for f in dataclasses.fields(frame)
        )
        assert f"**{frame.__name__}** `({fields})`" in DOC, frame.__name__


def test_control_frame_type_table_matches_implementation():
    from repro.transport.framing import CONTROL_FRAME_NAMES

    for frame_type, name in CONTROL_FRAME_NAMES.items():
        assert f"| `0x{frame_type:02X}` | {name} |" in DOC, name


def test_control_body_table_matches_implementation():
    # §6.2's per-frame field table is CONTROL_BODIES, row for row.
    from repro.transport.framing import CONTROL_BODIES, CONTROL_FRAME_NAMES

    implemented = []
    for frame_type, spec in CONTROL_BODIES.items():
        frame = CONTROL_FRAME_NAMES[frame_type]
        implemented += [
            (frame, f"`{name}`", field.type, field.range,
             "yes" if field.required else "no")
            for name, field in spec.items()
        ] or [(frame, "—", "", "", "")]
    start = DOC.index("| frame | field | type | range | required |")
    documented = [
        tuple(cell.strip() for cell in line.strip("|").split("|"))
        for line in DOC[start:].split("\n\n")[0].splitlines()[2:]
    ]
    assert documented == implemented
    assert sorted(CONTROL_BODIES) == sorted(CONTROL_FRAME_NAMES)


def test_socket_framing_constants_match_doc():
    from repro.transport.framing import (
        MAX_CONTROL_FRAME,
        RESPONSE_FLAG,
        encode_control_frame,
    )

    assert RESPONSE_FLAG == 0x80
    assert "response flag `0x80`" in DOC
    assert MAX_CONTROL_FRAME == 1_048_576
    assert "1,048,576" in DOC
    # "counts the type byte plus the body, NOT the prefix itself"
    wire = encode_control_frame(0x01, {})
    assert int.from_bytes(wire[:4], "big") == len(wire) - 4
    # §6.1: maximum datagram read and the bounded send queue.
    from repro.transport.broker import _MAX_DATAGRAM, _SEND_QUEUE_CAPACITY

    assert f"{_MAX_DATAGRAM:,} bytes" in DOC
    assert f"at most **{_SEND_QUEUE_CAPACITY:,}**" in DOC


def test_garnet_url_scheme_matches_doc():
    from repro.transport.base import URL_SCHEME

    assert URL_SCHEME == "garnet"
    assert "`garnet://host:port`" in DOC


def test_delivery_batch_frame_fields_match_doc():
    from repro.fanout import DeliveryBatch

    fields = ", ".join(f.name for f in dataclasses.fields(DeliveryBatch))
    assert f"**DeliveryBatch** `({fields})`" in DOC


def test_batch_datagram_magic_matches_doc():
    from repro.fanout import BATCH_MAGIC

    assert BATCH_MAGIC == b"\xfbGB\x01"
    documented = " ".join(f"{byte:02X}" for byte in BATCH_MAGIC)
    assert f"magic {documented}" in DOC


def test_batch_size_constants_match_doc():
    from repro.cluster.coordinator import HANDOFF_CAPACITY
    from repro.fanout.frames import MAX_BATCH_DATAGRAM

    assert f"packing budget of {MAX_BATCH_DATAGRAM:,} bytes" in DOC
    # §4.2's replay depth is the handoff buffer's capacity.
    assert f"newest {HANDOFF_CAPACITY} arrivals of each stream" in DOC


def test_duplicate_policy_window_matches_doc():
    from repro.util.ids import SEQUENCE_WINDOW

    assert f"a window of {SEQUENCE_WINDOW:,} positions" in DOC
    assert f"or *stale* ({SEQUENCE_WINDOW:,} or more" in DOC


def test_batch_magic_cannot_open_a_data_message():
    # §7's classification claim: byte 0 of a §2 frame is
    # version << 5 | flags, capped below 0x80 by the 3-bit version
    # field, so the 0xFB magic is unreachable as a frame opener.
    from repro.fanout import BATCH_MAGIC, is_batch_datagram

    assert BATCH_MAGIC[0] >= 0x80
    wire = MessageCodec().encode(
        DataMessage(stream_id=StreamId(1, 0), sequence=0, payload=b"x")
    )
    assert wire[0] < 0x80
    assert not is_batch_datagram(wire)


def test_fanout_inbox_prefix_matches_doc():
    from repro.fanout import RELAY_INBOX_PREFIX

    assert RELAY_INBOX_PREFIX == "garnet.fanout."
    assert "`garnet.fanout.<tree>.r<id>`" in DOC


def test_live_received_at_clock_matches_doc():
    # §6.2: QUERY's received_at (and PING's time) are Unix seconds on a
    # live broker, one stamp per drain of at most _DRAIN_BUDGET datagrams.
    import asyncio
    import time

    from repro.transport import LiveBroker
    from repro.transport.broker import _DRAIN_BUDGET

    assert "**`received_at` is Unix seconds on a live broker**" in DOC
    assert f"the up to {_DRAIN_BUDGET} datagrams of one drain share a stamp" in DOC

    async def clock_while_serving():
        broker = LiveBroker()
        await broker.start()
        try:
            return broker.deployment.arrival_clock
        finally:
            await broker.stop()

    deployment_clock = asyncio.run(clock_while_serving())
    assert deployment_clock is time.time
