"""Receiver and transmitter arrays at the wireless/fixed boundary."""

import pytest

from repro.core.control import ControlCodec, StreamUpdateCommand, StreamUpdateRequest
from repro.core.envelopes import LocationObservation, Reception
from repro.core.filtering import INBOX as FILTERING_INBOX
from repro.core.location import LocationService, OBSERVATION_INBOX
from repro.core.message import DataMessage, MessageCodec
from repro.core.streamid import StreamId
from repro.errors import ConfigurationError
from repro.radio.array import ReceiverArray, TransmitterArray
from repro.radio.receiver import Receiver
from repro.radio.transmitter import Transmitter
from repro.simnet.geometry import Circle, Point, Rect
from repro.simnet.wireless import RadioFrame, WirelessMedium

CODEC = MessageCodec()


def data_frame(sensor=1, seq=0):
    return CODEC.encode(DataMessage(stream_id=StreamId(sensor, 0), sequence=seq))


def radio_frame(payload, rssi=-55.0, at=1.0):
    return RadioFrame(payload=payload, rssi=rssi, sent_at=0.0, received_at=at)


class TestReceiver:
    @pytest.fixture
    def harness(self, sim, network):
        receptions, observations = [], []
        network.register_inbox(FILTERING_INBOX, receptions.append)
        network.register_inbox(OBSERVATION_INBOX, observations.append)
        receiver = Receiver(
            receiver_id=3,
            position=Point(5.0, 5.0),
            reception_range=100.0,
            network=network,
            codec=CODEC,
        )
        return sim, receiver, receptions, observations

    def test_data_frame_forwarded_to_filtering_and_location(self, harness):
        sim, receiver, receptions, observations = harness
        receiver.on_radio_receive(radio_frame(data_frame(sensor=9)))
        sim.run()
        assert len(receptions) == 1
        reception = receptions[0]
        assert isinstance(reception, Reception)
        assert reception.receiver_id == 3
        assert reception.message.stream_id.sensor_id == 9
        assert reception.rssi == -55.0
        assert len(observations) == 1
        assert isinstance(observations[0], LocationObservation)
        assert observations[0].sensor_id == 9

    def test_control_frames_ignored(self, harness):
        sim, receiver, receptions, _ = harness
        control = ControlCodec().encode(
            StreamUpdateRequest(
                request_id=1,
                target=StreamId(1, 0),
                command=StreamUpdateCommand.PING,
            )
        )
        receiver.on_radio_receive(radio_frame(control))
        sim.run()
        assert receptions == []
        assert receiver.stats.control_overheard == 1

    def test_corrupt_frames_dropped(self, harness):
        sim, receiver, receptions, _ = harness
        frame = bytearray(data_frame())
        frame[6] ^= 0xFF
        receiver.on_radio_receive(radio_frame(bytes(frame)))
        sim.run()
        assert receptions == []
        assert receiver.stats.corrupt == 1

    def test_unknown_frames_counted(self, harness):
        sim, receiver, receptions, _ = harness
        receiver.on_radio_receive(radio_frame(b"\xff\xff\xff"))
        assert receiver.stats.unknown == 1

    def test_zone(self, harness):
        _, receiver, _, _ = harness
        zone = receiver.zone()
        assert zone.center == Point(5.0, 5.0)
        assert zone.radius == 100.0

    def test_invalid_range_rejected(self, network):
        with pytest.raises(ValueError):
            Receiver(0, Point(0, 0), 0.0, network, CODEC)


class TestReceiverArray:
    def test_grid_layout_and_registration(self, sim, network):
        medium = WirelessMedium(sim, loss_model=None)
        network.register_inbox(FILTERING_INBOX, lambda m: None)
        location = LocationService(network)
        array = ReceiverArray(
            Rect(0, 0, 100, 100),
            2,
            2,
            medium=medium,
            network=network,
            codec=CODEC,
            overlap=1.5,
            location_service=location,
        )
        assert len(array) == 4
        assert medium.listener_count == 4
        # Every receiver taught its position to the location service.
        assert len(location._receivers) == 4

    def test_overlap_controls_coverage_multiplicity(self, sim, network):
        medium = WirelessMedium(sim, loss_model=None)
        network.register_inbox(FILTERING_INBOX, lambda m: None)
        network.register_inbox(OBSERVATION_INBOX, lambda m: None)
        area = Rect(0, 0, 100, 100)
        tight = ReceiverArray(
            area, 2, 2, medium=medium, network=network, codec=CODEC,
            overlap=1.0, first_receiver_id=0,
        )
        loose = ReceiverArray(
            area, 2, 2, medium=medium, network=network, codec=CODEC,
            overlap=3.0, first_receiver_id=100,
        )
        # Probe near a corner: at 1.0x overlap only the nearest receiver
        # covers it; at 3.0x several do. (The exact centre is equidistant
        # from all four receivers, so it cannot separate the two arrays.)
        corner = Point(1.0, 1.0)
        assert tight.coverage_multiplicity(corner) <= 1
        assert loose.coverage_multiplicity(corner) >= 3

    def test_invalid_overlap(self, sim, network):
        medium = WirelessMedium(sim)
        with pytest.raises(ConfigurationError):
            ReceiverArray(
                Rect(0, 0, 10, 10), 1, 1, medium=medium, network=network,
                codec=CODEC, overlap=0.0,
            )


class TestTransmitter:
    def test_broadcast_reaches_medium(self, sim):
        medium = WirelessMedium(sim, loss_model=None)
        heard = []

        class Node:
            position = Point(10.0, 0.0)

            def on_radio_receive(self, frame):
                heard.append(frame)

        medium.attach(Node(), 1000.0)
        transmitter = Transmitter(0, Point(0.0, 0.0), 100.0, medium)
        transmitter.broadcast(b"ctl")
        sim.run()
        assert len(heard) == 1
        assert transmitter.stats.broadcasts == 1
        assert transmitter.stats.bytes_sent == 3

    def test_footprint(self, sim):
        medium = WirelessMedium(sim)
        transmitter = Transmitter(0, Point(1.0, 2.0), 50.0, medium)
        assert transmitter.footprint() == Circle(Point(1.0, 2.0), 50.0)

    def test_invalid_range(self, sim):
        with pytest.raises(ValueError):
            Transmitter(0, Point(0, 0), 0.0, WirelessMedium(sim))


class TestTransmitterArray:
    @pytest.fixture
    def array(self, sim):
        medium = WirelessMedium(sim, loss_model=None)
        return TransmitterArray(
            Rect(0, 0, 1000, 1000), 2, 2, medium=medium, overlap=1.0
        )

    def test_select_covering_subset(self, array):
        corner_area = Circle(Point(100, 100), 50.0)
        selected = array.select_covering(corner_area)
        assert 1 <= len(selected) < 4

