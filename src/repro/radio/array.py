"""Receiver and transmitter arrays with controlled coverage overlap.

The arrays are laid out on grids over the deployment area. The key
dial for experiment E2 is the **overlap factor**: each grid cell's radio
range is the cell's circumradius multiplied by ``overlap``, so ``overlap
= 1`` just covers the cell and larger values make every point audible to
several receivers — improving reception at the cost of duplicate
deliveries, exactly the trade described in Section 4.2.
"""

from __future__ import annotations

import math

from repro.core.location import LocationService
from repro.core.message import MessageCodec
from repro.errors import ConfigurationError
from repro.radio.receiver import Receiver
from repro.radio.transmitter import Transmitter
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.geometry import Circle, Rect, grid_positions
from repro.simnet.wireless import WirelessMedium


def _grid_range(area: Rect, rows: int, cols: int, overlap: float) -> float:
    """Radio range giving the requested coverage overlap for a grid."""
    cell_w = area.width / cols
    cell_h = area.height / rows
    circumradius = math.hypot(cell_w, cell_h) / 2.0
    return circumradius * overlap


class ReceiverArray:
    """A grid of receivers feeding the Filtering and Location Services."""

    def __init__(
        self,
        area: Rect,
        rows: int,
        cols: int,
        medium: WirelessMedium,
        network: FixedNetwork,
        codec: MessageCodec,
        overlap: float = 1.5,
        location_service: LocationService | None = None,
        first_receiver_id: int = 0,
    ) -> None:
        if overlap <= 0:
            raise ConfigurationError(f"overlap must be positive: {overlap}")
        reception_range = _grid_range(area, rows, cols, overlap)
        self.receivers: list[Receiver] = []
        for offset, position in enumerate(grid_positions(area, rows, cols)):
            receiver = Receiver(
                receiver_id=first_receiver_id + offset,
                position=position,
                reception_range=reception_range,
                network=network,
                codec=codec,
            )
            self.receivers.append(receiver)
            medium.attach(receiver, reception_range, static=True)
            if location_service is not None:
                location_service.register_receiver(
                    receiver.receiver_id, position
                )

    def __len__(self) -> int:
        return len(self.receivers)

    @property
    def reception_range(self) -> float:
        return self.receivers[0].reception_range if self.receivers else 0.0

    def coverage_multiplicity(self, point) -> int:
        """How many receivers can hear a transmission at ``point``."""
        return sum(
            1 for receiver in self.receivers if receiver.zone().contains(point)
        )

    def total_frames(self) -> int:
        return sum(r.stats.frames for r in self.receivers)

    def total_data_messages(self) -> int:
        return sum(r.stats.data_messages for r in self.receivers)


class TransmitterArray:
    """A grid of transmitters the Message Replicator selects among."""

    def __init__(
        self,
        area: Rect,
        rows: int,
        cols: int,
        medium: WirelessMedium,
        overlap: float = 1.5,
        first_transmitter_id: int = 0,
    ) -> None:
        if overlap <= 0:
            raise ConfigurationError(f"overlap must be positive: {overlap}")
        tx_range = _grid_range(area, rows, cols, overlap)
        self.transmitters: list[Transmitter] = []
        for offset, position in enumerate(grid_positions(area, rows, cols)):
            self.transmitters.append(
                Transmitter(
                    transmitter_id=first_transmitter_id + offset,
                    position=position,
                    tx_range=tx_range,
                    medium=medium,
                )
            )

    def __len__(self) -> int:
        return len(self.transmitters)

    def transmitter(self, transmitter_id: int) -> Transmitter:
        for candidate in self.transmitters:
            if candidate.transmitter_id == transmitter_id:
                return candidate
        raise ConfigurationError(f"unknown transmitter {transmitter_id}")

    def online_transmitters(self) -> list[Transmitter]:
        return [t for t in self.transmitters if t.online]

    def nearest_online(self, point) -> Transmitter | None:
        """The in-service transmitter closest to ``point`` (None if none)."""
        online = self.online_transmitters()
        if not online:
            return None
        return min(
            online, key=lambda t: point.distance_to(t.position)
        )

    def select_covering(self, target: Circle) -> list[Transmitter]:
        """Transmitters whose footprint intersects the target area."""
        return [
            transmitter
            for transmitter in self.transmitters
            if transmitter.footprint().intersects(target)
        ]

    def total_broadcasts(self) -> int:
        return sum(t.stats.broadcasts for t in self.transmitters)
