"""Property-based invariants across subsystems (hypothesis)."""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dispatching import SubscriptionPattern
from repro.core.envelopes import Reception
from repro.core.filtering import (
    ACK_INBOX,
    DISPATCH_INBOX,
    FilteringService,
)
from repro.core.message import DataMessage, MessageCodec
from repro.core.streamid import StreamId
from repro.core.streams import StreamDescriptor, StreamRegistry
from repro.sensors.sampling import SampleCodec
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.kernel import Simulator
from repro.util.ids import IdPool

CODEC = MessageCodec()


# ----------------------------------------------------------------------
# Filtering: the dedup invariant under arbitrary duplication + shuffling
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 200), min_size=1, max_size=80),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_filtering_outputs_each_fresh_sequence_exactly_once(
    sequences, copies, shuffler
):
    """Feed every sequence `copies` times in a window-shuffled order:
    the output must contain each *accepted* sequence exactly once, and
    must accept every sequence that stays within the dedup window."""
    sim = Simulator(seed=0)
    network = FixedNetwork(sim, message_latency=0.0)
    delivered = []
    network.register_inbox(DISPATCH_INBOX, delivered.append)
    network.register_inbox(ACK_INBOX, lambda m: None)
    service = FilteringService(network, StreamRegistry(), window=512)

    feed = [seq for seq in sequences for _ in range(copies)]
    # Bounded shuffle: swap within a short horizon so reordering stays
    # inside the window.
    for i in range(len(feed)):
        j = min(len(feed) - 1, i + shuffler.randint(0, 5))
        feed[i], feed[j] = feed[j], feed[i]

    for seq in feed:
        service.on_reception(
            Reception(
                message=DataMessage(
                    stream_id=StreamId(1, 0), sequence=seq
                ),
                receiver_id=0,
                rssi=-50.0,
                received_at=sim.now,
            )
        )
    sim.run()
    out = [a.message.sequence for a in delivered]
    assert len(out) == len(set(out)), "a duplicate reached dispatch"
    assert set(out) == set(sequences), "a fresh sequence was lost"


# ----------------------------------------------------------------------
# Wire format: streams of concatenated messages always reparse
# ----------------------------------------------------------------------

message_strategy = st.builds(
    DataMessage,
    stream_id=st.builds(
        StreamId,
        sensor_id=st.integers(0, (1 << 24) - 1),
        stream_index=st.integers(0, 255),
    ),
    sequence=st.integers(0, 65535),
    payload=st.binary(max_size=128),
    fused=st.booleans(),
    encrypted=st.booleans(),
    ack_request_id=st.one_of(st.none(), st.integers(0, 65535)),
    hop_count=st.one_of(st.none(), st.integers(0, 255)),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(message_strategy, min_size=1, max_size=10))
def test_concatenated_messages_reparse_exactly(messages):
    blob = b"".join(CODEC.encode(m) for m in messages)
    decoded = []
    offset = 0
    while offset < len(blob):
        message, consumed = CODEC.decode_prefix_reference(blob[offset:])
        decoded.append(message)
        offset += consumed
    assert decoded == messages


@settings(max_examples=100, deadline=None)
@given(message_strategy, st.data())
def test_any_single_byte_corruption_is_detected(message, data):
    from repro.errors import CodecError

    wire = bytearray(CODEC.encode(message))
    index = data.draw(st.integers(0, len(wire) - 1))
    bit = data.draw(st.integers(0, 7))
    wire[index] ^= 1 << bit
    try:
        decoded = CODEC.decode(bytes(wire))
    except CodecError:
        return  # detected: good
    # CRC-16 misses ~2^-16 of corruptions; a single-bit flip is always
    # within its guaranteed detection class, so reaching here means the
    # flip landed somewhere that decoded to... itself? Impossible.
    raise AssertionError(f"corruption undetected: {decoded}")


# ----------------------------------------------------------------------
# Sample codec: quantisation error bound holds everywhere
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1000.0, 1000.0),
    st.floats(0.001, 1000.0),
    st.floats(0.0, 1.0),
    st.integers(2, 32),
)
@example(256.0, 0.001, 0.5, 13)  # error exceeds the ideal bound by 4e-15
def test_sample_codec_error_within_quantisation_bound(
    low, span, fraction, precision
):
    codec = SampleCodec(low, low + span)
    value = low + fraction * span
    decoded = codec.decode(codec.encode(0, value, precision))
    # The ideal-arithmetic bound is half a quantisation step; float64
    # rounding at an exact half-step boundary can tip the round() the
    # other way, and every value involved is only representable to an
    # ulp of the range's larger endpoint (which dwarfs an ulp of a
    # narrow span far from zero).
    slack = 4 * math.ulp(max(abs(low), abs(low + span)))
    bound = codec.quantisation_error(precision) + slack
    assert abs(decoded.value - value) <= bound


# ----------------------------------------------------------------------
# Dispatch patterns: pattern matching agrees with a naive oracle
# ----------------------------------------------------------------------

@st.composite
def pattern_strategy(draw):
    # Draw fields first and reject the all-empty combination *before*
    # construction (the dataclass rejects empty patterns in __post_init__).
    sensor_id = draw(st.one_of(st.none(), st.integers(0, 5)))
    stream_index = draw(st.one_of(st.none(), st.integers(0, 3)))
    kind = draw(
        st.one_of(
            st.none(), st.sampled_from(["a", "a.b", "a.*", "b.*", "c"])
        )
    )
    derived = draw(st.one_of(st.none(), st.booleans()))
    if sensor_id is None and stream_index is None and kind is None and derived is None:
        derived = draw(st.booleans())
    return SubscriptionPattern(
        sensor_id=sensor_id,
        stream_index=stream_index,
        kind=kind,
        derived=derived,
    )


def naive_matches(pattern: SubscriptionPattern, descriptor) -> bool:
    sid = descriptor.stream_id
    if pattern.sensor_id is not None and sid.sensor_id != pattern.sensor_id:
        return False
    if (
        pattern.stream_index is not None
        and sid.stream_index != pattern.stream_index
    ):
        return False
    if pattern.derived is not None and sid.is_derived != pattern.derived:
        return False
    if pattern.kind is not None:
        if pattern.kind.endswith("*"):
            if not descriptor.kind.startswith(pattern.kind[:-1]):
                return False
        elif descriptor.kind != pattern.kind:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(
    pattern_strategy(),
    st.integers(0, 5),
    st.integers(0, 3),
    st.sampled_from(["", "a", "a.b", "b.x", "c"]),
)
def test_pattern_matching_agrees_with_oracle(
    pattern, sensor_id, stream_index, kind
):
    descriptor = StreamDescriptor(
        stream_id=StreamId(sensor_id, stream_index), kind=kind
    )
    assert pattern.matches(descriptor) == naive_matches(pattern, descriptor)


# ----------------------------------------------------------------------
# IdPool: model-based uniqueness under arbitrary alloc/release traces
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=200))
def test_id_pool_never_double_allocates(operations):
    pool = IdPool(0, 31)
    held: list[int] = []
    model_rng = random.Random(42)
    for op in operations:
        if op in (0, 1):
            try:
                value = pool.allocate()
            except Exception:
                assert len(held) == 32  # only fails when truly full
                continue
            assert value not in held
            held.append(value)
        elif held:
            victim = held.pop(model_rng.randrange(len(held)))
            pool.release(victim)
    assert pool.in_use == len(held)


# ----------------------------------------------------------------------
# Codec: the struct fast path is byte-identical to the reference path
# ----------------------------------------------------------------------

_stream_ids = st.builds(
    StreamId, st.integers(0, 0xFFFFFF), st.integers(0, 0xFF)
)
_extensions = st.lists(
    st.tuples(st.integers(0, 0xFF), st.binary(max_size=24)),
    max_size=4,
).map(tuple)
_messages = st.builds(
    DataMessage,
    stream_id=_stream_ids,
    sequence=st.integers(0, 0xFFFF),
    payload=st.binary(max_size=160),
    fused=st.booleans(),
    encrypted=st.booleans(),
    ack_request_id=st.none() | st.integers(0, 0xFFFF),
    hop_count=st.none() | st.integers(0, 0xFF),
    extensions=_extensions,
)


@settings(max_examples=200, deadline=None)
@given(_messages)
def test_fast_codec_is_byte_identical_to_reference(message):
    """encode/decode (struct fast path) and encode_reference/
    decode_reference (validating path) must agree byte-for-byte on
    every representable message."""
    codec = CODEC
    wire = codec.encode(message)
    assert wire == codec.encode_reference(message)
    decoded = codec.decode(wire)
    assert decoded == codec.decode_reference(wire)
    assert decoded == message
    # The reference prefix parse consumes exactly the message, and decode
    # accepts any bytes-like container without changing the result.
    prefixed, consumed = codec.decode_prefix_reference(wire + b"\xAAtrailing")
    assert consumed == len(wire)
    assert prefixed == message
    assert codec.decode(bytearray(wire)) == message
    assert codec.decode(memoryview(wire)) == message
