"""Live-transport legs of repro.fanout.

- the §7 batch-datagram codec (roundtrip, packing, malformed input,
  magic/§2 non-collision);
- frame reuse: a wire publish is forwarded as the datagram it arrived
  as, an in-process one is encoded once regardless of subscriber count
  (``transport.encode_reuse``);
- end-to-end batched delivery: any broker packs same-pump deliveries to
  a consenting client into one batch datagram, and the client unpacks
  it through the ordinary dedupe path.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message import DataMessage, MessageCodec
from repro.core.streamid import StreamId
from repro.errors import TransportError
from repro.fanout.frames import (
    BATCH_HEADER_SIZE,
    BATCH_MAGIC,
    MAX_BATCH_DATAGRAM,
    datagram_frames,
    decode_batch_datagram,
    encode_batch_datagrams,
    is_batch_datagram,
)
from repro.transport import connect
from repro.transport.framing import SUBSCRIBE

from tests.test_transport_live import BrokerHarness, RawClient, poll_until


# ----------------------------------------------------------------------
# Batch datagram codec
# ----------------------------------------------------------------------
class TestBatchDatagramCodec:
    def frames(self, count: int = 5) -> list[bytes]:
        codec = MessageCodec()
        return [
            codec.encode(
                DataMessage(
                    stream_id=StreamId(1, 0),
                    sequence=sequence,
                    payload=bytes([sequence]) * 8,
                )
            )
            for sequence in range(count)
        ]

    def test_roundtrip_preserves_frames_and_order(self):
        frames = self.frames()
        datagrams = encode_batch_datagrams(frames)
        assert len(datagrams) == 1
        assert is_batch_datagram(datagrams[0])
        assert decode_batch_datagram(datagrams[0]) == frames

    def test_budget_splits_never_frames(self):
        frames = self.frames(8)
        # A budget that fits roughly two frames per datagram.
        budget = BATCH_HEADER_SIZE + 2 * (2 + len(frames[0]))
        datagrams = encode_batch_datagrams(frames, budget)
        assert len(datagrams) == 4
        assert all(len(d) <= budget for d in datagrams)
        assert [f for d in datagrams for f in decode_batch_datagram(d)] == frames

    def test_oversize_frame_gets_its_own_datagram(self):
        # Batch framing only where two frames share it (§7.2): a lone
        # frame, or one too big to sit beside its neighbours, is sent as
        # itself — the 8-byte wrapper could push a frame that fits one
        # UDP datagram past the maximum.
        small, big = self.frames(2)[0], b"\x20" + b"x" * 200
        assert encode_batch_datagrams([small]) == [small]
        datagrams = encode_batch_datagrams([small, big, *self.frames(2)], 64)
        assert datagrams[:2] == [small, big]
        assert decode_batch_datagram(datagrams[2]) == self.frames(2)

    def test_frame_over_length_prefix_rejected(self):
        with pytest.raises(TransportError):
            encode_batch_datagrams([b"x" * 0x10000])

    def test_empty_input_yields_no_datagrams(self):
        assert encode_batch_datagrams([]) == []

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: b"\x20" + d[1:],  # bad magic
            lambda d: d[:5],  # truncated before the count
            lambda d: d[:-1],  # truncated inside the last frame
            lambda d: d + b"\x00",  # trailing garbage
            lambda d: d[:4] + (99).to_bytes(2, "big") + d[6:],  # count lies
        ],
    )
    def test_malformed_datagrams_rejected(self, mangle):
        datagram = encode_batch_datagrams(self.frames(2))[0]
        with pytest.raises(TransportError):
            decode_batch_datagram(mangle(datagram))

    @pytest.mark.parametrize("count", [0, 1])
    def test_a_count_the_encoder_never_writes_is_refused(self, count):
        frames = self.frames(count)
        datagram = BATCH_MAGIC + count.to_bytes(2, "big") + b"".join(
            len(frame).to_bytes(2, "big") + frame for frame in frames
        )
        with pytest.raises(TransportError, match=f"of {count} frames"):
            decode_batch_datagram(datagram)
        with pytest.raises(TransportError):
            datagram_frames(datagram)

    def test_a_batch_past_the_budget_is_refused(self):
        frames = [b"\x20" * 30_000] * 2
        [fitting] = encode_batch_datagrams(frames, budget=70_000)
        assert len(fitting) > MAX_BATCH_DATAGRAM
        with pytest.raises(TransportError, match="exceeds"):
            decode_batch_datagram(fitting)

    def test_magic_cannot_collide_with_codec_frames(self):
        # A §2 frame's first byte is version << 5 | flags: the 3-bit
        # version keeps it under 0x80, so 0xFB can only open a batch.
        assert BATCH_MAGIC[0] == 0xFB
        for frame in self.frames():
            assert frame[0] < 0x80
            assert not is_batch_datagram(frame)


# Codec frames never open with the batch magic (their first byte is
# under 0x80), so neither do these.
FRAMES = st.lists(
    st.binary(max_size=40).filter(lambda frame: frame[:1] != BATCH_MAGIC[:1]),
    max_size=12,
)
MANGLES = {
    "bad magic": lambda d, n: b"\x20" + d[1:],
    "truncated": lambda d, n: d[: n % (len(d) - 1) + 1],
    "trailing bytes": lambda d, n: d + bytes([n % 256]) * (1 + n % 3),
    "count of 0": lambda d, n: d[:4] + b"\x00\x00" + d[6:],
    "count of 1": lambda d, n: d[:4] + b"\x00\x01" + d[6:],
}


class TestBatchDatagramProperties:
    """The §7.2 decoder accepts exactly what the encoder makes."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        frames=FRAMES,
        count=st.integers(0, 14),
        tail=st.binary(max_size=3),
    )
    def test_every_accepted_batch_reencodes_to_itself(self, frames, count, tail):
        # Built by hand: a count that may lie, trailing bytes, any size.
        data = BATCH_MAGIC + count.to_bytes(2, "big") + b"".join(
            len(frame).to_bytes(2, "big") + frame for frame in frames
        ) + tail
        try:
            decoded = decode_batch_datagram(data)
        except TransportError:
            return
        assert len(decoded) >= 2
        assert encode_batch_datagrams(decoded) == [data]

    @settings(max_examples=300, deadline=None, database=None)
    @given(frames=FRAMES, budget=st.integers(BATCH_HEADER_SIZE + 2, 200))
    def test_frame_lists_round_trip_under_the_budget(self, frames, budget):
        datagrams = encode_batch_datagrams(frames, budget)
        assert [f for d in datagrams for f in datagram_frames(d)] == frames
        for datagram in datagrams:
            # Only a frame too large to share a datagram overruns it.
            assert len(datagram) <= budget or not is_batch_datagram(datagram)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        frames=FRAMES.filter(lambda frames: len(frames) >= 2),
        mangle=st.sampled_from(sorted(MANGLES)),
        n=st.integers(0, 1 << 16),
    )
    def test_malformed_batches_raise(self, frames, mangle, n):
        [datagram] = encode_batch_datagrams(frames)
        with pytest.raises(TransportError):
            decode_batch_datagram(MANGLES[mangle](datagram, n))


def reference_split(data: bytes) -> list[bytes]:
    """The batch decoder as it was before its one-walk rewrite: the
    oracle the walk is held to, refusals and messages included."""
    if data[:4] != BATCH_MAGIC:
        raise TransportError("not a batch datagram (bad magic)")
    if len(data) < BATCH_HEADER_SIZE:
        raise TransportError("batch datagram truncated before frame count")
    if len(data) > MAX_BATCH_DATAGRAM:
        raise TransportError(
            f"a {len(data)}-byte batch datagram exceeds {MAX_BATCH_DATAGRAM}"
        )
    count = int.from_bytes(data[4:6], "big")
    if count < 2:
        raise TransportError(f"a batch datagram of {count} frames")
    frames: list[bytes] = []
    offset = BATCH_HEADER_SIZE
    for _ in range(count):
        if offset + 2 > len(data):
            raise TransportError("batch datagram truncated in length prefix")
        length = int.from_bytes(data[offset : offset + 2], "big")
        offset += 2
        if offset + length > len(data):
            raise TransportError("batch datagram truncated inside a frame")
        frames.append(data[offset : offset + length])
        offset += length
    if offset != len(data):
        raise TransportError(
            f"{len(data) - offset} trailing bytes after the last batch frame"
        )
    return frames


def reference_pack(frames: list[bytes], budget: int) -> list[bytes]:
    """The batch encoder as it was before it measured each frame once."""
    datagrams, group, size = [], [], BATCH_HEADER_SIZE

    def seal(group):
        if len(group) == 1:
            return group[0]
        return BATCH_MAGIC + len(group).to_bytes(2, "big") + b"".join(
            len(frame).to_bytes(2, "big") + frame for frame in group
        )

    for frame in frames:
        entry_size = 2 + len(frame)
        if group and size + entry_size > budget:
            datagrams.append(seal(group))
            group, size = [], BATCH_HEADER_SIZE
        group.append(frame)
        size += entry_size
    if group:
        datagrams.append(seal(group))
    return datagrams


def outcome(split, data):
    """What a splitter makes of ``data``: its frames, or its refusal."""
    try:
        return split(data)
    except TransportError as exc:
        return f"TransportError: {exc}"


#: Arbitrary bytes, with the magic in front often enough that the walk
#: itself runs: hand-built batches whose count and prefixes may lie.
DATAGRAMS = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: BATCH_MAGIC + tail),
    st.builds(
        lambda frames, count, cut, tail: (
            BATCH_MAGIC
            + count.to_bytes(2, "big")
            + b"".join(len(f).to_bytes(2, "big") + f for f in frames)
            + tail
        )[: None if cut < 0 else cut],
        FRAMES,
        st.integers(0, 14),
        st.integers(-1, 200),
        st.binary(max_size=3),
    ),
)


class TestBatchWalkOracle:
    """The one-walk decoder and the measure-once encoder against the
    implementations they replaced."""

    @settings(max_examples=500, deadline=None, database=None)
    @given(data=DATAGRAMS)
    def test_the_walk_splits_or_refuses_as_the_reference_does(self, data):
        assert outcome(decode_batch_datagram, data) == outcome(
            reference_split, data
        )

    def test_an_oversize_batch_is_refused_with_the_same_message(self):
        data = BATCH_MAGIC + b"\x00\x02" + bytes(MAX_BATCH_DATAGRAM)
        assert outcome(decode_batch_datagram, data) == outcome(
            reference_split, data
        )

    @settings(max_examples=300, deadline=None, database=None)
    @given(frames=FRAMES, budget=st.integers(BATCH_HEADER_SIZE + 2, 200))
    def test_packing_matches_the_reference_packer(self, frames, budget):
        assert encode_batch_datagrams(frames, budget) == reference_pack(
            frames, budget
        )


# ----------------------------------------------------------------------
# Frame reuse (the single-encode contract, now kept by the message)
# ----------------------------------------------------------------------
class TestSingleEncode:
    def test_at_most_one_encoder_run_per_message(self):
        harness = BrokerHarness()
        codec = harness.broker._codec
        build_frame = codec._build_frame
        encoder_runs = []

        def counting(message):
            encoder_runs.append(message.sequence)
            return build_frame(message)

        codec._build_frame = counting  # the encoder proper, not encode()
        subscribers = []
        received: list[bytes] = []
        try:
            publisher = connect(harness.url, "pub")
            for index in range(8):
                session = connect(harness.url, f"sub{index}")
                session.on_data(
                    lambda arrival: received.append(arrival.message.payload)
                )
                session.subscribe(kind="temp")
                subscribers.append(session)
            for sequence in range(3):
                publisher.publish(0, bytes([sequence]), kind="temp")
            assert poll_until(lambda: len(received) == 24)
            # 8 subscribers, 3 wire publishes: 24 deliveries, each the
            # datagram as it arrived — the encoder never ran.
            assert encoder_runs == []
            assert harness.counter("transport.encode_reuse") == 24

            async def publish_in_process():
                local = harness.broker.deployment.connect(
                    "local", heartbeat_period=None
                )
                local.publish(0, b"born here", kind="temp")
                harness.broker._pump()
                local.close()

            asyncio.run_coroutine_threadsafe(
                publish_in_process(), harness.loop
            ).result(10)
            assert poll_until(lambda: len(received) == 32)
            assert received[24:] == [b"born here"] * 8
            # A message born in the process has no frame yet: the first
            # delivery encodes it, the other seven reuse that frame.
            assert len(encoder_runs) == 1
            assert harness.counter("transport.encode_reuse") == 24 + 7
            publisher.close()
        finally:
            for session in subscribers:
                session.close()
            harness.stop()


# ----------------------------------------------------------------------
# End-to-end batched delivery over UDP
# ----------------------------------------------------------------------
@pytest.fixture
def harness():
    h = BrokerHarness()  # a plain deployment: fan-out off
    yield h
    h.stop()


class TestLiveBatchDelivery:
    def test_same_pump_deliveries_pack_into_one_datagram(self, harness):
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            # Two overlapping subscriptions: one publish, two server-side
            # deliveries in the same pump -> one batch datagram.
            subscriber.subscribe(kind="temp")
            subscriber.subscribe(kind="te*")
            publisher.publish(0, b"\x2a", kind="temp")
            assert poll_until(lambda: subscriber.stats.batch_datagrams >= 1)
            assert subscriber.stats.batched_frames == 2
            # The duplicate leg dies in the client's dedupe window.
            assert poll_until(lambda: received == [0])
            assert subscriber.stats.duplicates_dropped == 1
            registry = harness.broker.deployment.metrics()
            assert registry.value("transport.batch_datagrams") == 1.0
            assert registry.value("transport.batched_frames") == 2.0

    def test_single_frame_keeps_bare_datagram_shape(self, harness):
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            subscriber.subscribe(kind="temp")
            publisher.publish(0, b"\x01", kind="temp")
            assert poll_until(lambda: received == [0])
            # One delivery per pump: no batch framing on the wire.
            assert subscriber.stats.batch_datagrams == 0
            registry = harness.broker.deployment.metrics()
            assert registry.value("transport.batch_datagrams") == 0.0

    def test_plain_broker_batches_for_clients_that_ask(self, harness):
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber, RawClient(
            harness, "bare", batch_datagrams=False
        ) as bare:
            assert bare.hello["batch_datagrams"] is False
            for pattern in ("temp", "te*"):
                subscriber.subscribe(kind=pattern)
                bare.request(SUBSCRIBE, {"kind": pattern})
            publisher.publish(0, b"\x2a", kind="temp")
            # The client that said false gets each leg as its own bare
            # datagram; the LiveSession (it said true) gets one batch.
            legs = [bare.udp.recv(65535) for _ in range(2)]
            assert legs[0] == legs[1] and not is_batch_datagram(legs[0])
            message = MessageCodec().decode(legs[0])
            assert (message.sequence, message.payload) == (0, b"\x2a")
            assert poll_until(lambda: subscriber.stats.duplicates_dropped == 1)
            assert subscriber.stats.batch_datagrams == 1
            assert subscriber.stats.batched_frames == 2

    def test_a_frame_too_large_to_share_a_datagram_still_arrives(
        self, harness
    ):
        # 65,500 bytes fits one UDP datagram bare (65,507 at most) but
        # not inside an 8-byte batch wrapper: sealed alone as a batch it
        # was refused by sendto and counted dropped.
        big, small = bytes(65_500 - 11), bytes(40 - 11)
        with connect(harness.url, "pub") as publisher, connect(
            harness.url, "sub"
        ) as subscriber:
            received = []
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.payload)
            )
            subscriber.subscribe(kind="bulk")
            publisher.publish(0, b"warm-up", kind="bulk")
            assert poll_until(lambda: received == [b"warm-up"])
            with harness.paused():  # both land in one drain
                publisher.publish(0, big)
                publisher.publish(0, small)
            assert poll_until(lambda: len(received) == 3)
            assert received[1:] == [big, small]
            assert harness.counter("transport.datagrams_dropped") == 0
            assert harness.counter("transport.batch_datagrams") == 0
