"""Unreliable broadcast wireless medium.

This module models the wireless side of Figure 1: mobile sensors transmit
frames that any listener in range may receive. The model reproduces the
three traffic properties the middleware is built to cope with:

- **loss** — per-link Bernoulli loss whose probability grows toward the
  edge of the radio range, so roaming sensors fade out gradually
  (Section 4.2: sensors "occasionally roam outside the reception zone");
- **duplication** — every listener in range receives its own copy, so
  overlapping receiver zones deliver the same message several times
  (Section 4.2: overlap "causes potential duplication of data messages");
- **delay** — propagation at the speed of light plus serialisation at the
  configured bitrate, so larger payloads arrive later and frames from
  different transmitters interleave realistically.

The medium is honest about what radios know: listeners receive bytes and
an RSSI, never the transmitter's coordinates — location must be *inferred*
(Section 5).
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Protocol

from repro.errors import ConfigurationError
from repro.simnet.geometry import Point
from repro.simnet.kernel import Simulator
from repro.simnet.spatial import UniformGridIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

_SPEED_OF_LIGHT = 3.0e8  # m/s

#: Below this many static listeners the grid's bookkeeping costs more
#: than the linear scan it avoids.
_MIN_INDEXED_LISTENERS = 16

#: Static-tier entries whose cached position is re-validated per
#: broadcast (rotating cursor), bounding staleness detection latency to
#: ``ceil(len(static) / _STALE_SWEEP_BATCH)`` broadcasts.
_STALE_SWEEP_BATCH = 8


@dataclass(frozen=True, slots=True)
class RadioFrame:
    """One received copy of a transmission, as seen by a single listener."""

    payload: bytes
    rssi: float
    """Received signal strength indicator in dBm (log-distance model)."""
    sent_at: float
    received_at: float
    channel: int = 0


# broadcast() builds one frozen RadioFrame per delivery; __new__ plus
# direct slot writes skips the generated __init__ frame (same trick as
# the codec's DataMessage fast path).
_NEW_FRAME = RadioFrame.__new__
_SET_FRAME_FIELD = object.__setattr__
_RSSI_CACHE_MAX = 65536


class RadioListener(Protocol):
    """Anything attached to the medium: receivers and receive-capable sensors."""

    @property
    def position(self) -> Point:
        """Current antenna position (queried at delivery time)."""
        ...

    def on_radio_receive(self, frame: RadioFrame) -> None:
        """Handle one received frame copy."""
        ...


@dataclass(slots=True)
class LossModel:
    """Distance-dependent Bernoulli loss.

    Loss probability is ``base`` inside ``good_fraction`` of the range and
    rises polynomially to ``edge`` at the range boundary:

    ``p(d) = base + (edge - base) * max(0, (d/R - g)/(1 - g)) ** exponent``
    """

    base: float = 0.02
    edge: float = 0.6
    good_fraction: float = 0.7
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.base <= 1.0 or not 0.0 <= self.edge <= 1.0:
            raise ConfigurationError("loss probabilities must be in [0, 1]")
        if not 0.0 <= self.good_fraction < 1.0:
            raise ConfigurationError("good_fraction must be in [0, 1)")

    def loss_probability(self, distance: float, radio_range: float) -> float:
        if radio_range <= 0:
            return 1.0
        ratio = distance / radio_range
        if ratio > 1.0:
            return 1.0
        excess = max(0.0, (ratio - self.good_fraction))
        span = 1.0 - self.good_fraction
        scaled = (excess / span) ** self.exponent if span > 0 else 0.0
        return min(1.0, self.base + (self.edge - self.base) * scaled)


def log_distance_rssi(
    distance: float,
    tx_power_dbm: float = 0.0,
    path_loss_exponent: float = 2.4,
    reference_distance: float = 1.0,
    reference_loss_db: float = 40.0,
) -> float:
    """RSSI under the log-distance path-loss model (dBm)."""
    d = max(distance, reference_distance)
    loss = reference_loss_db + 10.0 * path_loss_exponent * math.log10(
        d / reference_distance
    )
    return tx_power_dbm - loss


class _Attachment:
    """One ``attach()`` call: a listener plus its radio parameters.

    ``seq`` is the attach-order serial number; candidate iteration sorts
    on it so loss-model RNG draws happen in exactly the order the
    unindexed linear scan produced them. ``position`` caches the antenna
    location for static listeners (queried once, at attach time), and
    ``ignores`` the transmission tags it discards unread.
    """

    __slots__ = (
        "listener",
        "radio_range",
        "channel",
        "seq",
        "static",
        "position",
        "ignores",
    )

    def __init__(
        self,
        listener: "RadioListener",
        radio_range: float,
        channel: int,
        seq: int,
        static: bool,
        position: Point | None,
        ignores: frozenset[Hashable],
    ) -> None:
        self.listener = listener
        self.radio_range = radio_range
        self.channel = channel
        self.seq = seq
        self.static = static
        self.position = position
        self.ignores = ignores


@dataclass(slots=True)
class MediumStats:
    """Aggregate counters the duplicate-filtering experiment (E2) reads."""

    transmissions: int = 0
    deliveries: int = 0
    losses: int = 0
    out_of_range: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    burst_losses: int = 0
    """Losses that occurred while an injected drop burst was active."""
    rssi_cache_evicted: int = 0
    """RSSI memo entries discarded when the cache hit its cap."""
    spatial_fallbacks: int = 0
    """Static-tier entries demoted to the linear scan after moving."""


class WirelessMedium:
    """Broadcast medium connecting sensors, receivers and transmitters.

    :meth:`broadcast` is the one implementation: a grid-pruned candidate
    walk in attach order, one seeded loss draw per in-range listener,
    and one kernel event per transmission that hands the surviving
    copies over in arrival order to the listeners that read them.

    Parameters
    ----------
    sim:
        The simulation kernel frames are scheduled on.
    bitrate:
        Serialisation rate in bits/second (default 250 kbit/s, typical for
        low-power sensor radios; the paper's 802.11b testbed corresponds to
        ``11e6``).
    loss_model:
        Per-link loss; ``None`` gives a perfectly reliable medium, handy in
        unit tests.
    per_hop_latency:
        Fixed MAC/processing latency added to every delivery.
    metrics:
        Optional metrics registry; when given, rare-path counters
        (``wireless.rssi_cache_evicted``, ``wireless.spatial_fallback``)
        are mirrored into it.
    """

    def __init__(
        self,
        sim: Simulator,
        bitrate: float = 250_000.0,
        loss_model: LossModel | None = None,
        per_hop_latency: float = 0.001,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if bitrate <= 0:
            raise ConfigurationError(f"bitrate must be positive: {bitrate}")
        if per_hop_latency < 0:
            raise ConfigurationError("per_hop_latency must be non-negative")
        self._sim = sim
        self._bitrate = bitrate
        self._loss_model = loss_model
        self._per_hop_latency = per_hop_latency
        self._attach_seq = 0
        #: Listeners whose position may change between broadcasts; always
        #: scanned linearly, in attach order (the pre-index behaviour).
        self._mobile: list[_Attachment] = []
        #: Listeners attached with ``static=True``; binned in the grid.
        self._static: list[_Attachment] = []
        self._static_by_listener: dict[int, list[_Attachment]] = {}
        self._static_channel_counts: dict[int, int] = {}
        self._grid: UniformGridIndex | None = None
        self._rng = sim.fork_rng()
        self._sweep_cursor = 0
        #: distance -> RSSI memo. Static topologies re-broadcast over the
        #: same sensor/listener pairs every sampling round, so the
        #: log-distance computation repeats with identical inputs.
        self._rssi_cache: dict[float, float] = {}
        self.stats = MediumStats()
        if metrics is not None:
            self._evicted_counter = metrics.counter(
                "wireless.rssi_cache_evicted",
                "RSSI memo entries discarded when the cache hit its cap",
            )
            self._fallback_counter = metrics.counter(
                "wireless.spatial_fallback",
                "static-tier listeners demoted to the linear scan after moving",
            )
        else:
            self._evicted_counter = None
            self._fallback_counter = None
        self._snoopers: list[Callable[[bytes, Point], None]] = []
        self._extra_loss = 0.0

    @property
    def listener_count(self) -> int:
        return len(self._mobile) + len(self._static)

    @property
    def indexed_listener_count(self) -> int:
        """How many listeners sit in the static (grid-indexed) tier."""
        return len(self._static)

    @property
    def extra_loss(self) -> float:
        """Additional loss probability injected by an active drop burst."""
        return self._extra_loss

    def set_extra_loss(self, probability: float) -> None:
        """Overlay a burst loss probability on every link (fault injection).

        The burst composes with the distance-dependent loss model as
        independent failure modes: a frame survives only if it survives
        both draws. Set to 0.0 to end the burst.
        """
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"extra loss probability must be in [0, 1]: {probability}"
            )
        self._extra_loss = probability

    def attach(
        self,
        listener: RadioListener,
        radio_range: float,
        channel: int = 0,
        *,
        static: bool = False,
        ignores: frozenset[Hashable] = frozenset(),
    ) -> None:
        """Register a listener with the sensitivity range of its radio.

        Pass ``static=True`` only when the listener's ``position`` never
        changes (fixed receivers, :class:`~repro.simnet.mobility.Stationary`
        sensors): static listeners are binned into the broadcast pruning
        index at their current position and are never re-queried. Mobile
        listeners keep the exhaustive per-broadcast scan. ``ignores``
        names the :meth:`broadcast` tags the listener would discard
        unread: it still hears them but is handed no frame.
        """
        if radio_range <= 0:
            raise ConfigurationError(
                f"radio_range must be positive: {radio_range}"
            )
        entry = _Attachment(
            listener,
            radio_range,
            channel,
            self._attach_seq,
            static,
            listener.position if static else None,
            ignores,
        )
        self._attach_seq += 1
        if static:
            self._static.append(entry)
            self._static_by_listener.setdefault(id(listener), []).append(entry)
            self._static_channel_counts[channel] = (
                self._static_channel_counts.get(channel, 0) + 1
            )
            if self._grid is not None:
                self._grid.insert(entry, entry.position)
        else:
            self._mobile.append(entry)

    def detach(self, listener: RadioListener) -> None:
        """Remove a listener; unknown listeners are ignored."""
        self._mobile = [
            entry for entry in self._mobile if entry.listener is not listener
        ]
        doomed = self._static_by_listener.pop(id(listener), None)
        if not doomed:
            return
        self._static = [
            entry for entry in self._static if entry.listener is not listener
        ]
        for entry in doomed:
            self._static_channel_counts[entry.channel] -= 1
            if self._grid is not None:
                self._grid.remove(entry)

    def notify_moved(self, listener: RadioListener) -> int:
        """Tell the medium a ``static=True`` listener has moved.

        All of the listener's static-tier entries are demoted to the
        linear-scan (mobile) tier — their cached position and grid bin
        are stale, and from now on the listener's live ``position`` is
        queried per broadcast. Returns how many entries were demoted.
        Callers that relocate a nominally static listener should invoke
        this immediately; the per-broadcast staleness sweep will catch a
        missed move eventually, but only after up to
        ``len(static) / _STALE_SWEEP_BATCH`` broadcasts.
        """
        entries = list(self._static_by_listener.get(id(listener), ()))
        for entry in entries:
            self._demote(entry)
        return len(entries)

    def _demote(self, entry: _Attachment) -> None:
        """Move a stale static-tier entry onto the linear-scan tier.

        Attach order (``seq``) is preserved across the move, so the
        candidate walk — and with it the RNG draw order — is
        exactly what it would have been had the listener been attached
        mobile from the start.
        """
        self._static.remove(entry)
        key = id(entry.listener)
        bucket = self._static_by_listener.get(key)
        if bucket is not None:
            bucket.remove(entry)
            if not bucket:
                del self._static_by_listener[key]
        self._static_channel_counts[entry.channel] -= 1
        if self._grid is not None:
            self._grid.remove(entry)
        entry.static = False
        entry.position = None
        insort(self._mobile, entry, key=_SEQ_KEY)
        self.stats.spatial_fallbacks += 1
        if self._fallback_counter is not None:
            self._fallback_counter.inc()

    def _sweep_static_positions(self) -> None:
        """Re-validate a rotating slice of cached static positions.

        Static entries cache the listener's position object at attach
        time; a listener that moves afterwards would otherwise be heard
        at its stale coordinates forever (and pruned by a stale grid
        bin). Every broadcast re-checks up to ``_STALE_SWEEP_BATCH``
        entries by object identity — all genuinely static listeners
        return the same ``Point`` instance on every query, so the check
        costs one attribute load per entry and never perturbs RNG state.
        """
        static = self._static
        count = len(static)
        if count == 0:
            return
        cursor = self._sweep_cursor
        stale: list[_Attachment] | None = None
        for _ in range(min(_STALE_SWEEP_BATCH, count)):
            if cursor >= count:
                cursor = 0
            entry = static[cursor]
            if entry.listener.position is not entry.position:
                if stale is None:
                    stale = []
                stale.append(entry)
            cursor += 1
        self._sweep_cursor = cursor
        if stale is not None:
            for entry in stale:
                self._demote(entry)

    def add_snooper(self, snooper: Callable[[bytes, Point], None]) -> None:
        """Observe every transmission regardless of range/loss (test hook)."""
        self._snoopers.append(snooper)

    def broadcast(
        self,
        origin: Point,
        payload: bytes,
        tx_range: float,
        channel: int = 0,
        exclude: RadioListener | None = None,
        tag: Hashable = None,
    ) -> int:
        """Transmit ``payload`` from ``origin``; returns scheduled deliveries.

        Each in-range listener independently survives the loss draw and,
        if it does, receives its own :class:`RadioFrame` stamped with its
        exact per-link arrival (propagation plus serialisation delay).
        The transmitter itself can be passed as ``exclude`` so nodes do
        not hear their own frames.

        Static listeners beyond ``tx_range`` are pruned through the grid
        index without being visited; candidates are then walked in attach
        order, so for every in-range listener the loss-model RNG draws
        are bit-identical to the exhaustive linear scan.

        All surviving copies of one transmission ride a single kernel
        event at the latest arrival and are handed over in arrival order
        (nearest first, attach order breaking ties — the kernel's own
        tie-break), so a first-copy-wins consumer elects the receiver it
        would under one event per copy. Propagation skew inside a disc
        is microseconds, and receivers timestamp from the frame, not the
        clock. ``tag`` (opaque here) says what the payload carries; a
        copy whose listener ignores it is counted but builds no frame.
        """
        if tx_range <= 0:
            raise ConfigurationError(f"tx_range must be positive: {tx_range}")
        now = self._sim.now
        stats = self.stats
        stats.transmissions += 1
        stats.bytes_sent += len(payload)
        for snooper in self._snoopers:
            snooper(payload, origin)
        fixed_delay = self._per_hop_latency + len(payload) * 8.0 / self._bitrate
        if self._static:
            self._sweep_static_positions()

        static = self._static
        static_candidates = static
        if len(static) >= _MIN_INDEXED_LISTENERS and math.isfinite(tx_range):
            grid = self._ensure_grid(tx_range)
            if grid.cells_for_radius(tx_range) < len(static):
                static_candidates = grid.query_disc(origin, tx_range)
                static_candidates.sort(key=_SEQ_KEY)
        candidates = _merge_attach_order(static_candidates, self._mobile)

        loss_model = self._loss_model
        extra_loss = self._extra_loss
        rng_random = self._rng.random
        batch: list[tuple[RadioListener, RadioFrame]] = []
        rssi_cache = self._rssi_cache
        hypot = math.hypot
        origin_x = origin.x
        origin_y = origin.y
        examined_static = 0
        copies = 0
        farthest = 0.0
        for entry in candidates:
            if entry.channel != channel or entry.listener is exclude:
                continue
            if entry.static:
                examined_static += 1
                position = entry.position
            else:
                position = entry.listener.position
            # Inlined Point.distance_to (hypot is sign-insensitive, so
            # this is bit-identical to origin.distance_to(position)).
            distance = hypot(position.x - origin_x, position.y - origin_y)
            rx_range = entry.radio_range
            reach = tx_range if tx_range < rx_range else rx_range
            if distance > reach:
                stats.out_of_range += 1
                continue
            if loss_model is not None:
                p_loss = loss_model.loss_probability(distance, reach)
                if extra_loss > 0.0:
                    # Independent failure modes: survive both or lose.
                    p_loss = 1.0 - (1.0 - p_loss) * (1.0 - extra_loss)
                if rng_random() < p_loss:
                    stats.losses += 1
                    if extra_loss > 0.0:
                        stats.burst_losses += 1
                    continue
            elif extra_loss > 0.0:
                if rng_random() < extra_loss:
                    stats.losses += 1
                    stats.burst_losses += 1
                    continue
            copies += 1
            if distance > farthest:
                farthest = distance
            if tag in entry.ignores:
                continue
            rssi = rssi_cache.get(distance)
            if rssi is None:
                if len(rssi_cache) >= _RSSI_CACHE_MAX:
                    # Mobile listeners produce ever-fresh distances;
                    # reset rather than grow without bound.
                    evicted = len(rssi_cache)
                    rssi_cache.clear()
                    stats.rssi_cache_evicted += evicted
                    if self._evicted_counter is not None:
                        self._evicted_counter.inc(evicted)
                rssi = rssi_cache[distance] = log_distance_rssi(distance)
            # Construct the (frozen, slots) frame without the dataclass
            # __init__ frame: a per-delivery cost.
            frame = _NEW_FRAME(RadioFrame)
            _SET_FRAME_FIELD(frame, "payload", payload)
            _SET_FRAME_FIELD(frame, "rssi", rssi)
            _SET_FRAME_FIELD(frame, "sent_at", now)
            arrival = now + (fixed_delay + distance / _SPEED_OF_LIGHT)
            _SET_FRAME_FIELD(frame, "received_at", arrival)
            _SET_FRAME_FIELD(frame, "channel", channel)
            batch.append((entry.listener, frame))

        # Grid-pruned static listeners are out of range by construction;
        # count them exactly as the linear scan would have, without the
        # visit. (When no pruning happened the bracket is zero.)
        total_static = self._static_channel_counts.get(channel, 0)
        if total_static > examined_static:
            excluded = 0
            if exclude is not None:
                excluded = sum(
                    1
                    for entry in self._static_by_listener.get(id(exclude), ())
                    if entry.channel == channel
                )
            stats.out_of_range += total_static - excluded - examined_static
        if copies:
            batch.sort(key=_arrival)
            # Arrival grows with distance: this is the latest copy's
            # received_at, bit for bit, handed over or not.
            latest = now + (fixed_delay + farthest / _SPEED_OF_LIGHT)
            self._sim.schedule_at(
                latest, self._deliver_batch, copies, len(payload), batch
            )
        return copies

    def _ensure_grid(self, tx_range: float) -> UniformGridIndex:
        """The static-listener grid, (re)built so cells stay near the
        largest radio range seen — the cell-count/candidate-count sweet
        spot for disc queries."""
        grid = self._grid
        if grid is None or tx_range > grid.cell_size * 4.0:
            # Cells at half the radio range: a disc query's cell
            # bounding box then covers ~2x the disc area (vs ~5x with
            # range-sized cells), so fewer false candidates per query
            # at a still-trivial per-query cell count (~36).
            grid = UniformGridIndex(tx_range * 0.5)
            for entry in self._static:
                grid.insert(entry, entry.position)
            self._grid = grid
        return grid

    def _deliver_batch(
        self, copies: int, size: int, batch: list[tuple[RadioListener, RadioFrame]]
    ) -> None:
        stats = self.stats
        stats.deliveries += copies
        # Every copy, handed over or not, carries the same payload.
        stats.bytes_delivered += size * copies
        for listener, frame in batch:
            listener.on_radio_receive(frame)


_SEQ_KEY = attrgetter("seq")


def _arrival(copy: tuple[RadioListener, RadioFrame]) -> float:
    """Sort key of one ``(listener, frame)`` copy in a delivery batch."""
    return copy[1].received_at


def _merge_attach_order(
    static: list[_Attachment], mobile: list[_Attachment]
) -> list[_Attachment]:
    """Merge two attach-order-sorted entry lists, preserving the order."""
    if not mobile:
        return static
    if not static:
        return mobile
    merged: list[_Attachment] = []
    append = merged.append
    i = j = 0
    n_static, n_mobile = len(static), len(mobile)
    while i < n_static and j < n_mobile:
        left, right = static[i], mobile[j]
        if left.seq < right.seq:
            append(left)
            i += 1
        else:
            append(right)
            j += 1
    merged.extend(static[i:])
    merged.extend(mobile[j:])
    return merged
