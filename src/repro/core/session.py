"""GarnetSession: one consumer's complete connection to the middleware.

The broker, dispatcher, Resource Manager and fixed network each expose a
narrow, service-shaped API; an application previously had to thread a
token and an endpoint name through all of them in the right order. A
session folds that choreography into one object obtained from
:meth:`Garnet.connect(token) <repro.core.middleware.Garnet.connect>`:

>>> session = deployment.connect("dashboard")          # doctest: +SKIP
>>> session.on_data(lambda arrival: ...)               # doctest: +SKIP
>>> session.subscribe(kind="temperature.*")            # doctest: +SKIP
>>> session.request_update(stream, SET_RATE, 0.5)      # doctest: +SKIP

Beyond convenience, the session is the client half of the middleware's
**crash-recovery protocol** (:mod:`repro.faults`): its
:class:`SessionLedger` remembers every subscription it installed, it
heartbeats the broker to keep its registration lease alive, and when a
heartbeat comes back ``False`` — the broker restarted from a crash with
empty state, or the lease lapsed — it re-registers, reinstalls the
ledger (every id it handed out stays valid), and replays what fell into
the Orphanage while its routes were gone. Recoveries surface as
``resilience.*`` metrics.

:class:`~repro.core.consumer.Consumer` is implemented on top: every
consumer added to a deployment owns one session and delegates its
middleware operations to it.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any, Generic, TypeVar

from repro.core.control import StreamUpdateCommand
from repro.core.dispatching import SubscriptionPattern
from repro.core.envelopes import FrameRun, StreamArrival, new_arrival
from repro.core.message import DataMessage, peek_header
from repro.core.resource import Decision
from repro.core.security import Token
from repro.core.streamid import StreamId
from repro.core.streams import StreamDescriptor
from repro.errors import (
    GarnetError,
    SessionError,
    StoreError,
    SubscriptionError,
)
from repro.obs.stats import RegistryBackedStats
from repro.simnet.kernel import PeriodicTask
from repro.util.ids import SEQUENCE_WINDOW, SequenceWindow, WrappingCounter

if TYPE_CHECKING:
    from repro.cluster.node import BrokerNode

DataCallback = Callable[[StreamArrival], None]
RunLeg = Callable[[Iterable[StreamArrival]], None]
Held = TypeVar("Held")
Wanted = TypeVar("Wanted")

#: The replay vocabulary of :meth:`GarnetSession.subscribe`.
REPLAY_MODES = ("none", "orphans", "history")


def merge_replay(
    held: list[Held],
    windows: dict[StreamId, SequenceWindow],
    header: Callable[[Held], tuple[float, StreamId, int]],
) -> list[Held]:
    """The one replay merge: every retained sequence once, oldest first.

    ``held`` has one entry per retained copy from every source there is
    (each Orphanage's backlog, the store's segments), and ``header``
    reads an entry's ``(received_at, stream_id, sequence)``. Entries are
    ordered by ``(received_at, stream_id)`` — a stable sort, so one
    source's own order survives ties — and one is kept only when its
    stream's window in ``windows`` accepts the sequence; a missing
    window is created there. Orphan replay passes fresh windows, history
    replay the session's own.
    """
    held.sort(key=lambda entry: header(entry)[:2])
    kept = []
    for entry in held:
        _, stream_id, sequence = header(entry)
        window = windows.get(stream_id)
        if window is None:
            window = windows[stream_id] = SequenceWindow(SEQUENCE_WINDOW)
        if window.add(sequence):
            kept.append(entry)
    return kept


def _arrival_header(
    held: tuple[StreamArrival, Any],
) -> tuple[float, StreamId, int]:
    arrival, _ = held
    message = arrival.message
    return arrival.received_at, message.stream_id, message.sequence


def _record_header(record: Any) -> tuple[float, StreamId, int]:
    return record.received_at, record.stream_id, peek_header(record.frame)[1]


class SessionLedger(Generic[Wanted]):
    """What one session asked for, under ids that outlive its registration.

    Each subscription is held under a per-session id (from 1, never
    reused) mapped to the id the current registration holds for it: the
    dispatcher's in-process, the broker's on a live client.
    :meth:`reinstall` changes only the mapped ids. No I/O: ``Wanted`` is
    what the owner re-sends (a :class:`SubscriptionPattern` or a
    SUBSCRIBE body), through calls the owner passes in.
    """

    def __init__(self, publisher_id: int | None = None) -> None:
        self.publisher_id = publisher_id
        #: stream index -> (kind, encrypted)
        self.advertised: dict[int, tuple[str, bool]] = {}
        self.wanted: dict[int, Wanted] = {}
        self._registered: dict[int, int] = {}
        self._next_id = 1

    def add(self, wanted: Wanted, registered: int) -> int:
        """Record one installed subscription; returns its session id."""
        subscription_id = self._next_id
        self._next_id += 1
        self.wanted[subscription_id] = wanted
        self._registered[subscription_id] = registered
        return subscription_id

    def registered(self, subscription_id: int) -> int:
        """The registration's id for one of this session's own ids."""
        if subscription_id not in self.wanted:
            raise SubscriptionError(f"unknown subscription {subscription_id}")
        return self._registered[subscription_id]

    def remove(self, subscription_id: int) -> None:
        del self.wanted[subscription_id], self._registered[subscription_id]

    def reinstall(
        self,
        subscribe: Callable[[Wanted], int],
        advertise: Callable[[int, str, bool], Any] | None = None,
    ) -> int:
        """Replay the ledger on a fresh registration: ``subscribe`` returns
        each subscription's new id, then ``advertise``, when given,
        repeats each advertisement. The mapped ids change only once all
        are back. Returns how many subscriptions were reinstalled."""
        registered = {
            key: subscribe(value) for key, value in self.wanted.items()
        }
        if advertise is not None:
            for index, (kind, encrypted) in list(self.advertised.items()):
                advertise(index, kind, encrypted)
        self._registered = registered
        return len(registered)

    def to_record(self) -> dict:
        """What a live broker persists (JSON makes the int keys strings)."""
        return {
            "publisher_id": self.publisher_id,
            "subscriptions": {
                key: dataclasses.asdict(value)
                for key, value in self.wanted.items()
            },
            "advertised": dict(self.advertised),
        }

    @classmethod
    def from_record(
        cls, record: dict, read: Callable[[dict], Wanted]
    ) -> SessionLedger[Wanted]:
        """Read :meth:`to_record`'s shape back, through ``read``."""
        publisher_id = record.get("publisher_id")
        ledger = cls(None if publisher_id is None else int(publisher_id))
        for key, fields in record.get("subscriptions", {}).items():
            subscription_id = int(key)
            ledger.wanted[subscription_id] = read(fields)
            if subscription_id >= ledger._next_id:
                ledger._next_id = subscription_id + 1
        ledger.advertised = {
            int(index): (str(kind), bool(encrypted))
            for index, (kind, encrypted) in record.get("advertised", {}).items()
        }
        return ledger


class SessionStats(RegistryBackedStats):
    """Per-session counters (prefixed ``session.<name>``)."""

    deliveries: int = 0
    published: int = 0
    heartbeats: int = 0
    heartbeat_failures: int = 0
    recoveries: int = 0
    resubscriptions: int = 0
    orphans_replayed: int = 0
    history_replayed: int = 0
    history_duplicates_dropped: int = 0
    queries: int = 0


class GarnetSession:
    """A consumer-side handle over registration, pub/sub and control.

    Obtain one from :meth:`Garnet.connect`; do not construct directly.
    The session owns its fixed-network inbox and broker registration and
    releases both on :meth:`close`.
    """

    def __init__(
        self,
        deployment: Any,
        name: str,
        token: Token,
        node: BrokerNode,
        heartbeat_period: float | None = None,
    ) -> None:
        if not name:
            raise SessionError("session name must be non-empty")
        self._deployment = deployment
        self._name = name
        self._token = token
        # The BrokerNode this session is homed on: its broker takes
        # registrations and its dispatch inbox takes publishes.
        self._node = node
        self._closed = False
        # A tuple, rebound by on_data: deliveries iterate it without a copy.
        self._callbacks: tuple[DataCallback, ...] = ()
        # Where each run of deliveries goes: the callbacks, one arrival
        # at a time, unless deliver_inline installed a run leg.
        self._take_run: RunLeg = self._hand_over
        # What this session asked for: recovery reinstalls it.
        self._ledger: SessionLedger[SubscriptionPattern] = SessionLedger()
        # Per-stream sequence windows primed by history replay: a live
        # delivery whose sequence the replay already served is dropped,
        # which is the gap-free/duplicate-free handover guarantee of
        # ``subscribe(replay='history')``.
        self._history_windows: dict[StreamId, SequenceWindow] = {}
        self._publish_sequences: dict[int, WrappingCounter] = {}
        self.stats = SessionStats(prefix=f"session.{name}")
        metrics = deployment.metrics()
        self.stats.bind(metrics)
        self._deliveries = self.stats.counter("deliveries")
        # Deployment-wide recovery counters (shared across sessions).
        self._recoveries_counter = metrics.counter(
            "resilience.session_recoveries",
            help="sessions that re-registered after broker state loss",
        )
        self._resubscriptions_counter = metrics.counter(
            "resilience.session_resubscriptions",
            help="subscriptions re-installed by session recovery",
        )
        self._orphan_replay_counter = metrics.counter(
            "resilience.orphans_replayed",
            help="orphaned messages replayed to recovering sessions",
        )
        self.network.register_inbox(self.endpoint, self._deliver)
        try:
            self.broker.register_consumer(token, self.endpoint)
        except GarnetError:
            # A refused token must not leave the name's inbox behind.
            self.network.unregister_inbox(self.endpoint)
            raise
        self._heartbeat_task: PeriodicTask | None = None
        if heartbeat_period is not None:
            self._heartbeat_task = PeriodicTask(
                self.network.sim, heartbeat_period, self.heartbeat
            )

    # ------------------------------------------------------------------
    # The deployment services this session talks to
    # ------------------------------------------------------------------
    @property
    def network(self):
        return self._deployment.network

    @property
    def broker(self):
        return self._node.broker

    @property
    def home_broker(self) -> str:
        """The broker node this session is homed on (``b0`` off-cluster)."""
        return self._node.name

    @property
    def control(self):
        return self._deployment.control

    @property
    def metrics(self):
        return self._deployment.metrics()

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def token(self) -> Token:
        return self._token

    @property
    def endpoint(self) -> str:
        return f"consumer.{self._name}"

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def quarantined(self) -> bool:
        """True while QoS delivery has parked this session as a slow
        consumer (:class:`repro.qos.DeliveryManager`). Always False when
        per-consumer delivery queues are disabled."""
        delivery = self._deployment.qos.delivery
        return delivery is not None and delivery.is_quarantined(self.endpoint)

    @property
    def subscription_ids(self) -> tuple[int, ...]:
        return tuple(self._ledger.wanted)

    @property
    def ledger(self) -> SessionLedger[SubscriptionPattern]:
        return self._ledger

    def _require_open(self) -> None:
        if self._closed:
            raise SessionError(f"session {self._name!r} is closed")

    # ------------------------------------------------------------------
    # Data delivery
    # ------------------------------------------------------------------
    def on_data(self, callback: DataCallback) -> None:
        """Register a callback for every delivered :class:`StreamArrival`."""
        if not callable(callback):
            raise SessionError(f"data callback must be callable: {callback!r}")
        self._callbacks += (callback,)

    def _deliver(
        self, run: StreamArrival | Sequence[StreamArrival], *more: StreamArrival
    ) -> None:
        """Hand a run of live deliveries on, oldest first, in one call:
        arrivals as arguments (a bus delivery is one), or a direct leg's
        run."""
        if run.__class__ is StreamArrival:
            run = (run, *more)
        windows = self._history_windows
        if windows:
            run = self._not_replayed(windows, run)
        self._deliveries.inc(len(run))
        self._take_run(run)

    def _hand_over(self, arrivals: Iterable[StreamArrival]) -> None:
        """Call the callbacks on each arrival: live runs and history replay.

        A callback that raises costs only the delivery it raised on: the
        rest still arrive, then the home dispatcher hears of each error
        (:meth:`DispatchingService.delivery_failed`), which re-raises the
        first when no hook is installed.
        """
        callbacks = self._callbacks
        errors = []
        for arrival in arrivals:
            try:
                for callback in callbacks:
                    callback(arrival)
            except Exception as error:
                errors.append(error)
        for error in errors:
            self._node.dispatcher.delivery_failed(error)

    def _not_replayed(
        self, windows: dict[StreamId, SequenceWindow], run: Sequence[Any]
    ) -> Sequence[Any]:
        """``run`` less what a history replay already served: it was in
        flight to the dispatcher when the replay read the store."""
        walked = run.__class__ is FrameRun
        window = windows.get(run.stream_id if walked else run[0].message.stream_id)
        if window is None:
            return run
        if walked:
            run, dropped = run.kept(window)
        else:
            sequences = [each.message.sequence for each in run]
            (run,), dropped = window.keep(sequences, run)
        self.stats.history_duplicates_dropped += dropped
        return run

    def deliver_inline(self, take_run: RunLeg | None = None) -> None:
        """Take deliveries as calls from the home dispatcher, not bus
        sends: one call per run.

        With ``take_run``, every run this session delivers — live runs
        past the history-replay window, orphan and history replay — goes
        to ``take_run(run)`` in one call, in place of the data callbacks
        (a live broker forwards its clients' frames this way); its live
        runs come as routed (a live drain's as its :class:`FrameRun`),
        ``delivered_at`` unstamped. Without it, the callbacks see each
        arrival stamped with the hand-off time.
        """
        handler = self._deliver_stamped
        if take_run is not None:
            self._take_run, handler = take_run, self._deliver
        self._node.dispatcher.bind_direct(self.endpoint, handler)

    def _deliver_stamped(self, run: Sequence[StreamArrival]) -> None:
        """A direct run for the data callbacks: stamped with the hand-off
        time, which a bus delivery carries from the dispatcher."""
        now = self.network.sim.now
        self._deliver(
            [
                new_arrival(StreamArrival, (message, received_at, receiver, now))
                for message, received_at, receiver, _ in run
            ]
        )

    # ------------------------------------------------------------------
    # Discovery & subscription
    # ------------------------------------------------------------------
    def discover(
        self,
        kind: str | None = None,
        sensor_id: int | None = None,
        derived: bool | None = None,
    ) -> list[StreamDescriptor]:
        """Query the stream catalogue by advertised metadata."""
        self._require_open()
        return self.broker.discover(
            self._token, kind=kind, sensor_id=sensor_id, derived=derived
        )

    def subscribe(
        self,
        pattern: SubscriptionPattern | None = None,
        *,
        stream_id: StreamId | None = None,
        sensor_id: int | None = None,
        stream_index: int | None = None,
        kind: str | None = None,
        derived: bool | None = None,
        replay: str = "none",
    ) -> int:
        """Subscribe by explicit pattern or by pattern fields.

        ``session.subscribe(kind="temperature.*")`` and
        ``session.subscribe(SubscriptionPattern(kind="temperature.*"))``
        are equivalent; mixing both forms is an error.

        ``replay`` selects what catches the subscriber up on data that
        arrived *before* the subscription existed:

        - ``'none'`` (default) — live deliveries only, the historical
          behaviour.
        - ``'orphans'`` — the Orphanage's bounded in-memory backlog for
          matching streams is replayed into this session and released
          (what crash recovery has always done, now on demand).
        - ``'history'`` — the durable stream store replays every
          retained record for matching streams, in order, before live
          delivery continues; the handover is gap-free and
          duplicate-free (messages in flight during the replay are
          deduped by sequence). Requires ``store_enabled=True``.
        """
        self._require_open()
        if replay not in REPLAY_MODES:
            raise SubscriptionError(
                f"unknown replay mode {replay!r}; expected one of "
                f"{', '.join(REPLAY_MODES)}"
            )
        fields_given = any(
            value is not None
            for value in (stream_id, sensor_id, stream_index, kind, derived)
        )
        if pattern is not None and fields_given:
            raise SubscriptionError(
                "pass either a SubscriptionPattern or pattern fields, not both"
            )
        if pattern is None:
            pattern = SubscriptionPattern(
                stream_id=stream_id,
                sensor_id=sensor_id,
                stream_index=stream_index,
                kind=kind,
                derived=derived,
            )
        if replay == "history" and self._deployment.store is None:
            raise SubscriptionError(
                "subscribe(replay='history') requires store_enabled=True"
            )
        subscription_id = self._ledger.add(pattern, self._install(pattern))
        if replay == "orphans":
            self._replay_orphans((pattern,))
        elif replay == "history":
            self._replay_history(pattern)
        return subscription_id

    def unsubscribe(self, subscription_id: int) -> None:
        self._require_open()
        self.broker.unsubscribe(
            self._token, self._ledger.registered(subscription_id)
        )
        self._ledger.remove(subscription_id)

    def _install(self, pattern: SubscriptionPattern) -> int:
        return self.broker.subscribe(self._token, self.endpoint, pattern)

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------
    def request_update(
        self,
        stream_id: StreamId,
        command: StreamUpdateCommand,
        value: Any = None,
        priority: int = 0,
    ) -> Decision:
        """Resource Manager approval + actuation, as this session."""
        self._require_open()
        # Observability only: control requests are cluster-global, but
        # count how many target streams owned elsewhere.
        self._deployment.cluster.note_control_request(
            stream_id, self._node.name
        )
        return self.control.request_update(
            consumer=self._name,
            token=self._token,
            stream_id=stream_id,
            command=command,
            value=value,
            priority=priority,
        )

    def release_demands(self, stream_id: StreamId | None = None) -> None:
        self._require_open()
        self.control.release_demands(self._name, stream_id)

    # ------------------------------------------------------------------
    # Publication (multi-level consumption)
    # ------------------------------------------------------------------
    def publish(
        self,
        stream_index: int,
        payload: bytes,
        kind: str = "",
        fused: bool = False,
        encrypted: bool = False,
        extensions: tuple[tuple[int, bytes], ...] = (),
    ) -> StreamId:
        """Publish one message on this session's derived stream."""
        self._require_open()
        stream_id = StreamId(self.ensure_publisher_id(), stream_index)
        counter = self._publish_sequences.get(stream_index)
        if counter is None:
            counter = WrappingCounter(16)
            self._publish_sequences[stream_index] = counter
            if kind:
                self.advertise(stream_index, kind, encrypted)
        message = DataMessage(
            stream_id=stream_id,
            sequence=counter.next(),
            payload=payload,
            fused=fused,
            encrypted=encrypted,
            extensions=extensions,
        )
        self.network.send(
            self._node.dispatch_inbox,
            StreamArrival(
                message=message,
                received_at=self.network.sim.now,
                receiver_id=-1,
            ),
        )
        self.stats.published += 1
        return stream_id

    def advertise(
        self, stream_index: int, kind: str, encrypted: bool = False
    ) -> StreamId:
        """Attach metadata to one of this session's derived streams."""
        self._require_open()
        stream_id = StreamId(self.ensure_publisher_id(), stream_index)
        self.broker.advertise(
            self._token, stream_id, kind=kind, encrypted=encrypted
        )
        self._ledger.advertised[stream_index] = (kind, encrypted)
        return stream_id

    def ensure_publisher_id(self) -> int:
        """This session's virtual-sensor id, allocated on first use.

        Ordinarily :meth:`publish` allocates lazily; the live transport
        broker calls this at handshake time so remote clients can build
        their own :class:`StreamId` values for datagram publishes.
        """
        ledger = self._ledger
        if ledger.publisher_id is None:
            ledger.publisher_id = self._deployment.allocate_publisher_id()
        return ledger.publisher_id

    @property
    def publisher_id(self) -> int | None:
        return self._ledger.publisher_id

    def adopt(self, ledger: SessionLedger[SubscriptionPattern]) -> None:
        """Take over a live broker's persisted ledger: publisher id (the
        caller reserved it), subscriptions by their ids, advertisements."""
        self._ledger = ledger
        ledger.reinstall(self._install, self.advertise)

    # ------------------------------------------------------------------
    # Liveness & recovery
    # ------------------------------------------------------------------
    def heartbeat(self) -> bool:
        """Renew the broker lease; recover if the broker forgot us.

        Returns True when the session's registration is intact (renewed
        or just repaired); False when the broker is down and recovery
        must wait for a future heartbeat.
        """
        if self._closed:
            return False
        if not self.broker.up:
            self.stats.heartbeat_failures += 1
            return False
        self.stats.heartbeats += 1
        if self.broker.heartbeat(self._token, self.endpoint):
            return True
        self._recover()
        return True

    def _recover(self) -> None:
        """Re-register, re-subscribe, and replay orphaned backlog."""
        self.stats.recoveries += 1
        self._recoveries_counter.inc()
        self.broker.register_consumer(self._token, self.endpoint)
        reinstalled = self._ledger.reinstall(self._install)
        self.stats.resubscriptions += reinstalled
        self._resubscriptions_counter.inc(reinstalled)
        self._replay_orphans()

    def _replay_orphans(
        self, patterns: tuple[SubscriptionPattern, ...] | None = None
    ) -> int:
        """Pull matching Orphanage backlogs into this session's inbox.

        While the session's routes were missing, its streams' data fell
        through to the Orphanage; on recovery, any orphaned stream a
        current subscription matches is replayed and released.
        ``patterns`` narrows the match set — ``subscribe(replay=
        'orphans')`` passes just the new pattern; recovery passes None
        (= every live subscription). An ownership handoff can leave
        overlapping copies of one stream's backlog in several nodes'
        Orphanages: :func:`merge_replay` sends every retained sequence
        once, and each Orphanage counts the copies it supplied.
        """
        if patterns is None:
            patterns = tuple(self._ledger.wanted.values())
        registry = self._deployment.registry
        held: list[tuple[StreamArrival, Any]] = []
        for orphanage in self._deployment.orphanages():
            for orphan_stream in orphanage.orphan_streams():
                if self._stream_wanted(orphan_stream, patterns, registry):
                    held += [
                        (arrival, orphanage)
                        for arrival in orphanage.backlog(orphan_stream)
                    ]
                    orphanage.discard(orphan_stream)
        replayed = merge_replay(held, {}, _arrival_header)
        for arrival, orphanage in replayed:
            orphanage.stats.replayed += 1
            self.network.send(self.endpoint, arrival)
        if replayed:
            self.stats.orphans_replayed += len(replayed)
            self._orphan_replay_counter.inc(len(replayed))
            self._deployment.invalidate_routes()
        return len(replayed)

    @staticmethod
    def _stream_wanted(
        stream_id: StreamId,
        patterns: tuple[SubscriptionPattern, ...],
        registry: Any,
    ) -> bool:
        """Does any pattern match this stream (by descriptor or exact id)?"""
        descriptor = registry.find(stream_id)
        if descriptor is None:
            return any(
                pattern.stream_id == stream_id for pattern in patterns
            )
        return any(pattern.matches(descriptor) for pattern in patterns)

    def _replay_history(self, pattern: SubscriptionPattern) -> int:
        """Replay the durable store's retained records for one pattern.

        Records are delivered synchronously (the subscription is already
        installed, so anything published *during* the replay lands after
        it) in :func:`merge_replay` order, through the session's own
        per-stream windows: every replayed sequence primes them, so a
        live copy that was already in flight is dropped by
        :meth:`_deliver` rather than double-delivered. A callback that
        raises on one record costs only that record (:meth:`_hand_over`).
        """
        store = self._deployment.store
        registry = self._deployment.registry
        patterns = (pattern,)
        stored = [
            record
            for stream_id in store.streams()
            if self._stream_wanted(stream_id, patterns, registry)
            for record in store.read(stream_id)
        ]
        replayed = merge_replay(stored, self._history_windows, _record_header)
        # Counted before delivery, which re-raises a callback's error
        # when no hook is installed: the windows already hold every
        # replayed sequence.
        store.stats.replays += 1
        store.stats.records_replayed += len(replayed)
        self.stats.history_replayed += len(replayed)
        self._deliveries.inc(len(replayed))
        self._take_run(self._arrivals(replayed))
        return len(replayed)

    # ------------------------------------------------------------------
    # Historical queries (requires store_enabled=True)
    # ------------------------------------------------------------------
    def query(
        self,
        stream_id: StreamId,
        start: float | None = None,
        end: float | None = None,
        limit: int | None = None,
    ) -> list[StreamArrival]:
        """Read one stream's retained history as decoded arrivals.

        ``start``/``end`` bound ``received_at`` inclusively (virtual
        time; Unix time for records a live broker stamped); ``limit``
        keeps the earliest N matches. Raises
        :class:`StoreError` when the deployment has no store.
        """
        self._require_open()
        store = self._deployment.store
        if store is None:
            raise StoreError(
                "session.query() requires store_enabled=True on the "
                "deployment"
            )
        records = store.read(stream_id, start=start, end=end, limit=limit)
        store.stats.queries += 1
        store.stats.records_queried += len(records)
        self.stats.queries += 1
        return list(self._arrivals(records))

    def _arrivals(self, records: list[Any]) -> Iterator[StreamArrival]:
        """Store records as decoded arrivals, delivered now."""
        decode, now = self._deployment.codec.decode, self.network.sim.now
        for record in records:
            yield StreamArrival(
                decode(record.frame), record.received_at, record.receiver_id, now
            )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release demands, registration and the inbox. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.stop()
            self._heartbeat_task = None
        self.control.release_demands(self._name)
        if self.broker.up:
            try:
                self.broker.deregister_consumer(self._token, self.endpoint)
            except Exception:
                # Lease may already have been reaped; the endpoint is
                # gone either way.
                pass
        if self.network.has_inbox(self.endpoint):
            self.network.unregister_inbox(self.endpoint)
        self._node.dispatcher.bind_direct(self.endpoint, None)
        self._deployment._release_session(self)
