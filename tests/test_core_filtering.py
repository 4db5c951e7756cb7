"""The Filtering Service: duplicate elimination and ack extraction."""

import pytest

from repro.core.envelopes import Reception
from repro.core.filtering import (
    ACK_INBOX,
    DISPATCH_INBOX,
    FilteringService,
    INBOX,
)
from repro.core.flags import ExtensionType
from repro.core.message import DataMessage, make_request_status_extension
from repro.core.streamid import StreamId
from repro.core.streams import StreamRegistry
from repro.errors import CodecError


@pytest.fixture
def harness(sim, network):
    delivered = []
    acks = []
    network.register_inbox(DISPATCH_INBOX, delivered.append)
    network.register_inbox(ACK_INBOX, acks.append)
    registry = StreamRegistry()
    service = FilteringService(network, registry, window=64)
    return sim, network, service, registry, delivered, acks


def reception(
    sequence: int,
    receiver_id: int = 0,
    stream: StreamId = StreamId(7, 0),
    received_at: float = 1.0,
    **message_fields,
) -> Reception:
    return Reception(
        message=DataMessage(
            stream_id=stream, sequence=sequence, **message_fields
        ),
        receiver_id=receiver_id,
        rssi=-60.0,
        received_at=received_at,
    )


class TestDuplicateElimination:
    def test_passes_fresh_messages(self, harness):
        sim, _, service, _, delivered, _ = harness
        for seq in range(5):
            service.on_reception(reception(seq))
        sim.run()
        assert [a.message.sequence for a in delivered] == list(range(5))

    def test_drops_copies_from_overlapping_receivers(self, harness):
        sim, _, service, registry, delivered, _ = harness
        for receiver in range(3):
            service.on_reception(reception(10, receiver_id=receiver))
        sim.run()
        assert len(delivered) == 1
        assert service.stats.duplicates == 2
        descriptor = registry.get(StreamId(7, 0))
        assert descriptor.stats.duplicates_dropped == 2

    def test_streams_deduplicate_independently(self, harness):
        sim, _, service, _, delivered, _ = harness
        service.on_reception(reception(1, stream=StreamId(7, 0)))
        service.on_reception(reception(1, stream=StreamId(7, 1)))
        service.on_reception(reception(1, stream=StreamId(8, 0)))
        sim.run()
        assert len(delivered) == 3

    def test_reordered_straggler_within_window_accepted(self, harness):
        sim, _, service, _, delivered, _ = harness
        service.on_reception(reception(5))
        service.on_reception(reception(3))  # late but within window
        sim.run()
        assert [a.message.sequence for a in delivered] == [5, 3]
        assert service.stats.reordered == 1

    def test_straggler_duplicate_still_dropped(self, harness):
        sim, _, service, _, delivered, _ = harness
        service.on_reception(reception(5))
        service.on_reception(reception(3))
        service.on_reception(reception(3))
        sim.run()
        assert len(delivered) == 2
        assert service.stats.duplicates == 1

    def test_too_old_sequence_treated_as_stale(self, harness):
        sim, _, service, _, delivered, _ = harness
        service.on_reception(reception(1000))
        service.on_reception(reception(100))  # 900 behind, window is 64
        sim.run()
        assert len(delivered) == 1
        assert service.stats.stale == 1

    def test_repeats_past_the_window_are_dropped(self, sim, network):
        # Regression: a count-bounded recent-set forgot 11 and 12 (both
        # still within reach of the newest) and delivered them again.
        delivered = []
        network.register_inbox(DISPATCH_INBOX, delivered.append)
        network.register_inbox(ACK_INBOX, lambda notice: None)
        service = FilteringService(network, StreamRegistry(), window=8)
        for seq in range(20):
            service.on_reception(reception(seq))
        service.on_reception(reception(11))  # 8 behind 19: stale
        service.on_reception(reception(12))  # 7 behind: a duplicate
        sim.run()
        assert [a.message.sequence for a in delivered] == list(range(20))
        assert service.stats.duplicates == 2
        assert service.stats.stale == 1

    def test_sequence_wraparound_accepted_as_new(self, harness):
        sim, _, service, _, delivered, _ = harness
        service.on_reception(reception(65534))
        service.on_reception(reception(65535))
        service.on_reception(reception(0))
        service.on_reception(reception(1))
        sim.run()
        assert [a.message.sequence for a in delivered] == [65534, 65535, 0, 1]
        assert service.stats.duplicates == 0

    def test_duplicate_after_wraparound_dropped(self, harness):
        sim, _, service, _, delivered, _ = harness
        service.on_reception(reception(65535))
        service.on_reception(reception(0))
        service.on_reception(reception(65535))
        sim.run()
        assert len(delivered) == 2

    def test_rejects_non_reception(self, harness):
        _, _, service, _, _, _ = harness
        with pytest.raises(CodecError):
            service.on_reception("not a reception")

    def test_window_validation(self, network):
        registry = StreamRegistry()
        with pytest.raises(ValueError):
            FilteringService(network, registry, window=0)
        with pytest.raises(ValueError):
            FilteringService(network, registry, window=1 << 15)


class TestAckExtraction:
    def test_ack_header_field_forwarded(self, harness):
        sim, _, service, _, _, acks = harness
        service.on_reception(reception(1, ack_request_id=321))
        sim.run()
        assert len(acks) == 1
        assert acks[0].request_id == 321
        assert acks[0].sensor_id == 7
        assert acks[0].status == 0

    def test_request_status_extension_forwarded(self, harness):
        sim, _, service, _, _, acks = harness
        message_ext = (
            (
                int(ExtensionType.REQUEST_STATUS),
                make_request_status_extension(55, 2),
            ),
        )
        service.on_reception(reception(1, extensions=message_ext))
        sim.run()
        assert len(acks) == 1
        assert acks[0].request_id == 55
        assert acks[0].status == 2

    def test_duplicate_copies_do_not_duplicate_acks(self, harness):
        sim, _, service, _, _, acks = harness
        service.on_reception(reception(1, receiver_id=0, ack_request_id=9))
        service.on_reception(reception(1, receiver_id=1, ack_request_id=9))
        sim.run()
        assert len(acks) == 1


class TestHousekeeping:
    def test_stats_received_counts_everything(self, harness):
        sim, _, service, _, _, _ = harness
        service.on_reception(reception(1))
        service.on_reception(reception(1))
        assert service.stats.received == 2
        assert service.stats.delivered == 1


class TestMultipleAcksPerMessage:
    def test_every_request_status_extension_is_extracted(self, harness):
        """A sensor batching several acknowledgements into one message
        (one in the ACK header field, the rest as REQUEST_STATUS
        extensions) must complete every pending request."""
        sim, _, service, _, _, acks = harness
        extensions = tuple(
            (
                int(ExtensionType.REQUEST_STATUS),
                make_request_status_extension(request_id, 0),
            )
            for request_id in (11, 12, 13)
        )
        service.on_reception(
            reception(1, ack_request_id=10, extensions=extensions)
        )
        sim.run()
        assert sorted(notice.request_id for notice in acks) == [10, 11, 12, 13]
