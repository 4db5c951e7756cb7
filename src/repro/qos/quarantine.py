"""Slow-consumer detection and quarantine on the delivery path.

A consumer that stops draining its inbox must not stall the fan-out to
everybody else. The :class:`DeliveryManager` sits between the
Dispatching Service and the fixed network: healthy endpoints are
forwarded to directly (one extra function call, nothing buffered), while
an endpoint an operator or fault has marked *stalled* accumulates into a
bounded per-consumer queue. If that queue stays saturated past a
virtual-clock window, the consumer is **quarantined**: subsequent
deliveries are parked in a bounded backlog (a
:class:`~repro.util.backlog.Backlog`, oldest evicted first, like the
Orphanage's) instead of being sent, its broker lease and subscriptions
stay untouched — this complements lease reaping, it does not replace
it — and when the consumer recovers, the parked backlog is
replayed in arrival order, orphan-style.

Everything is counted under ``qos.delivery.*``; the number of currently
quarantined consumers is the ``qos.delivery.quarantined_active`` gauge.
"""

from __future__ import annotations

from repro.core.envelopes import StreamArrival
from repro.errors import ConfigurationError
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.stats import RegistryBackedStats
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.kernel import EventHandle
from repro.util.backlog import Backlog

#: Deliveries a quarantined consumer's parked backlog holds.
PARKED_CAPACITY = 1024


class DeliveryStats(RegistryBackedStats):
    PREFIX = "qos.delivery"

    forwarded: int = 0
    queued: int = 0
    shed: int = 0
    quarantines: int = 0
    parked: int = 0
    parked_evicted: int = 0
    replayed: int = 0
    released: int = 0
    resumes: int = 0


class _ConsumerQueue:
    __slots__ = (
        "queue",
        "stalled",
        "saturated_since",
        "quarantined",
        "parked",
        "check",
    )

    def __init__(
        self, capacity: int, shed: Counter, parked_evicted: Counter
    ) -> None:
        self.queue: Backlog[StreamArrival] = Backlog(capacity, shed)
        self.stalled = True
        self.saturated_since: float | None = None
        self.quarantined = False
        self.parked: Backlog[StreamArrival] = Backlog(
            PARKED_CAPACITY, parked_evicted
        )
        self.check: EventHandle | None = None


class DeliveryManager:
    """Per-consumer delivery queues with saturation-window quarantine."""

    def __init__(
        self,
        network: FixedNetwork,
        queue_capacity: int,
        quarantine_after: float,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if queue_capacity < 1:
            raise ConfigurationError(
                f"consumer queue capacity must be at least 1, got "
                f"{queue_capacity}"
            )
        if quarantine_after <= 0:
            raise ConfigurationError(
                f"quarantine window must be positive, got {quarantine_after}"
            )
        self._network = network
        self._capacity = queue_capacity
        self._quarantine_after = quarantine_after
        self._states: dict[str, _ConsumerQueue] = {}
        self.stats = DeliveryStats(metrics)
        self._active = self.stats.registry.gauge(
            "qos.delivery.quarantined_active",
            help="consumers currently quarantined",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_stalled(self, endpoint: str) -> bool:
        state = self._states.get(endpoint)
        return state is not None and state.stalled

    def is_quarantined(self, endpoint: str) -> bool:
        state = self._states.get(endpoint)
        return state is not None and state.quarantined

    def quarantined_endpoints(self) -> list[str]:
        return sorted(
            endpoint
            for endpoint, state in self._states.items()
            if state.quarantined
        )

    def intercepts(self, endpoint: str) -> bool:
        """True when deliveries to ``endpoint`` are being buffered.

        Only stalled/quarantined endpoints carry state; the fan-out
        tree's leaf edge uses this to count quarantine diversions
        inside a DELIVERY_BATCH without paying for untracked members.
        """
        return endpoint in self._states

    def backlog_size(self, endpoint: str) -> int:
        state = self._states.get(endpoint)
        if state is None:
            return 0
        return len(state.queue) + len(state.parked)

    # ------------------------------------------------------------------
    # Delivery path (called by the Dispatching Service per fan-out leg)
    # ------------------------------------------------------------------
    def deliver(self, endpoint: str, arrival: StreamArrival) -> None:
        state = self._states.get(endpoint)
        if state is None:
            # The overwhelmingly common case: nothing buffered, straight
            # onto the bus. Only stalled/quarantined endpoints get state.
            self.stats.forwarded += 1
            self._network.send(endpoint, arrival)
            return
        if state.quarantined:
            self._park(state, arrival)
            return
        state.queue.append(arrival)
        self.stats.queued += 1
        if len(state.queue) >= self._capacity and state.saturated_since is None:
            now = self._network.sim.now
            state.saturated_since = now
            state.check = self._network.sim.schedule(
                self._quarantine_after, self._check_saturation, endpoint
            )

    def _park(self, state: _ConsumerQueue, arrival: StreamArrival) -> None:
        state.parked.append(arrival)
        self.stats.parked += 1

    def _check_saturation(self, endpoint: str) -> None:
        state = self._states.get(endpoint)
        if state is None or state.quarantined:
            return
        state.check = None
        if (
            state.saturated_since is not None
            and len(state.queue) >= self._capacity
        ):
            self._quarantine(state)

    def _quarantine(self, state: _ConsumerQueue) -> None:
        state.quarantined = True
        state.saturated_since = None
        self.stats.quarantines += 1
        self._active.inc()
        # The saturated queue becomes the head of the parked backlog so
        # replay preserves arrival order end to end.
        for arrival in state.queue.drain():
            self._park(state, arrival)

    # ------------------------------------------------------------------
    # Stall levers (driven by ConsumerStall faults and tests)
    # ------------------------------------------------------------------
    def stall(self, endpoint: str) -> None:
        """Mark ``endpoint`` as not draining; deliveries start queueing."""
        state = self._states.get(endpoint)
        if state is None:
            self._states[endpoint] = _ConsumerQueue(
                self._capacity,
                self.stats.counter("shed"),
                self.stats.counter("parked_evicted"),
            )
        else:
            state.stalled = True

    def resume(self, endpoint: str) -> int:
        """The consumer drains again: flush/replay its backlog in order.

        Returns the number of messages handed back to the bus. The
        orphan-style recovery move: quarantine parked the data rather
        than dropping it, so a recovered consumer catches up instead of
        restarting with a hole in its history.
        """
        state = self._states.pop(endpoint, None)
        if state is None:
            return 0
        self.stats.resumes += 1
        if state.check is not None:
            state.check.cancel()
            state.check = None
        if state.quarantined:
            self._active.dec()
        backlog = state.queue.drain() + state.parked.drain()
        for arrival in backlog:
            self.stats.replayed += 1
            self._network.send(endpoint, arrival)
        return len(backlog)

    def release(self, endpoint: str) -> int:
        """Drop all buffered state for a departed endpoint.

        Called when the dispatcher forgets an endpoint (consumer closed,
        or its lease was reaped): a parked backlog must not outlive the
        consumer it was parked for. Returns the number of messages
        discarded.
        """
        state = self._states.pop(endpoint, None)
        if state is None:
            return 0
        if state.check is not None:
            state.check.cancel()
            state.check = None
        if state.quarantined:
            self._active.dec()
        dropped = len(state.queue) + len(state.parked)
        self.stats.released += dropped
        return dropped
