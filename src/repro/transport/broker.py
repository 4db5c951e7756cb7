"""LiveBroker: serve a Garnet deployment over real sockets.

The broker wraps an ordinary (simulated-kernel) :class:`Garnet`
deployment and exposes its consumer surface on localhost:

- **TCP control plane** — one connection per client session. HELLO
  registers a :class:`~repro.core.session.GarnetSession` server-side
  and announces the client's UDP port; SUBSCRIBE / UNSUBSCRIBE /
  DISCOVER / ADVERTISE / PING / CLOSE map 1:1 onto the session API.
  Every body is checked whole against
  :data:`~repro.transport.framing.CONTROL_BODIES` before its handler
  runs, so a refused frame has had no side effect.
- **UDP data plane** — one datagram is one
  :class:`~repro.core.message.MessageCodec` message or a §7 batch of
  them. Client publishes arrive here and are injected into the
  Dispatching Service exactly the way a session publish is; deliveries
  for subscribed clients go back out as codec frames to the UDP address
  each HELLO announced.

Everything runs on one asyncio event loop, so deployment state needs no
locking: each control frame, or each drain of the data-plane socket, is
handled and then the simulation kernel is pumped to quiescence
(``run_until_idle``), which runs what the control path left on the bus
(advertisements, orphanage, QoS drains). The deployment therefore must
not carry unbounded periodic tasks: :meth:`LiveBroker.start` refuses one
whose kernel never idles (the default broker deployment disables the
location beacon for exactly this reason).

The data path does not ride the simulated bus. The broker owns its UDP
socket (:class:`_DataPlaneSocket`): a readiness event reads datagrams
until ``_DRAIN_BUDGET`` frames are in, never splitting a §7 batch, and
walks each datagram's headers, checking each CRC once. Consecutive
frames of one stream form a run (a
:class:`~repro.core.envelopes.FrameRun`), which the Dispatching Service
routes and stores once; each server-side session queues its frames as
received. The pump after the drain sends each session's share in one
``sendto`` loop, in arrival order, packed into §7 batch datagrams for a
client that announced ``batch_datagrams``. What the OS will not take
waits in a bounded FIFO; a frame no UDP datagram can carry is dropped
and counted.

**Resilience.** With a grace window configured
(``transport_resume_grace`` / ``garnet-broker --resume-grace``), a
client whose control connection drops *without* a CLOSE is **parked**
rather than torn down: its server-side session, subscriptions and
publisher id stay alive for the grace window, deliveries accumulate in
a bounded parked buffer, and the session token issued at HELLO doubles
as a **resume token**. A RESUME frame on a fresh connection re-attaches
the session and replays only what the client missed — store records
past the client's per-stream cursors plus parked deliveries, deduped so
each missed record is sent exactly once. NACK frames answer per-stream
gap-repair requests from the store. When the deployment's broker runs
leases (``broker_lease_ttl``), they are granted and expired on the
broker's monotonic clock (``_clock``) — the virtual clock only moves
when a control event is pumped — and a housekeeping task reaps vanished
clients (missed keepalive PINGs, UDP inactivity). A ``sessions_path``
persists the resumable-session table so RESUME survives a broker
restart.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import json
import secrets
import socket
import time
from collections.abc import Iterable, Iterator
from operator import attrgetter
from pathlib import Path
from typing import Any

from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.envelopes import FrameRun, StreamArrival
from repro.core.message import peek_header
from repro.core.middleware import Garnet
from repro.core.session import SessionLedger
from repro.core.streamid import StreamId
from repro.errors import ConfigurationError, GarnetError, TransportError
from repro.fanout.frames import (
    datagram_frames,
    encode_batch_datagrams,
    is_batch_datagram,
)
from repro.transport.framing import (
    ADVERTISE,
    CLOSE,
    DISCOVER,
    HELLO,
    MAX_CONTROL_FRAME,
    MAX_UDP_PAYLOAD,
    NACK,
    PING,
    QUERY,
    RESPONSE_FLAG,
    RESUME,
    SUBSCRIBE,
    UNSUBSCRIBE,
    ControlFrameAssembler,
    encode_control_frame,
    parse_control_body,
)
from repro.util.backlog import Backlog
from repro.util.ids import sequence_is_newer

#: Ceiling on the hex-encoded record bytes one QUERY or NACK response
#: carries; leaves headroom under MAX_CONTROL_FRAME for the JSON
#: scaffolding. A QUERY that would exceed it is cut short with
#: ``truncated: true`` so the client can page with ``start=<last
#: received_at>``; a NACK leaves the rest for the client's next batch.
_RESPONSE_BUDGET = MAX_CONTROL_FRAME // 2

#: Largest datagram the data plane reads: the UDP maximum, so a §7 batch
#: datagram (up to 60,000 bytes) arrives whole. Well under the allocator's
#: mmap threshold, unlike asyncio's fixed 256 KiB receive, which maps and
#: faults fresh memory for every datagram.
_MAX_DATAGRAM = 65535

#: Frames read per readiness event before the kernel is pumped and
#: control returns to the event loop, so the TCP control plane and the
#: housekeeping task get a turn at least this often under a flood. A
#: drain reads whole datagrams: one §7 batch may carry it past the budget.
_DRAIN_BUDGET = 64

#: Datagrams that may wait for a full kernel send buffer; past this the
#: oldest is evicted and counted (``transport.datagrams_dropped``).
_SEND_QUEUE_CAPACITY = 1024

#: Deliveries a parked session holds; past this the oldest is evicted and
#: counted (``transport.parked_deliveries_dropped``), and a resume falls
#: back to the store for what the buffer lost.
_PARK_CAPACITY = 4096

#: Events :meth:`LiveBroker.start` gives the kernel to show it idles.
_IDLE_PROBE_EVENTS = 100_000


def _pattern(fields: dict) -> SubscriptionPattern:
    """The pattern in a parsed SUBSCRIBE body: all of it but ``replay``."""
    return SubscriptionPattern(
        **{name: value for name, value in fields.items() if name != "replay"}
    )


def _persisted_pattern(body: dict) -> SubscriptionPattern:
    """A persisted SUBSCRIBE body, read back through the same checks."""
    return _pattern(parse_control_body(SUBSCRIBE, body))


def _hex_within_budget(frames: Iterable[bytes]) -> Iterator[str]:
    """Hex-encode frames until one more would overrun a response."""
    left = _RESPONSE_BUDGET
    for frame in frames:
        hex_frame = frame.hex()
        if len(hex_frame) > left:
            return
        left -= len(hex_frame)
        yield hex_frame


@dataclasses.dataclass(slots=True, eq=False)
class _SessionState:
    """The resumable half of one client session.

    Outlives the TCP connection that created it: while no connection is
    bound (``udp_address is None``) the state is *parked* — deliveries
    buffer into ``parked`` and the token stays valid until ``deadline``.
    ``session`` is None only for states reloaded from a persisted
    sessions file after a broker restart; RESUME revives them, and the
    session adopts the ``ledger`` read from the file.
    """

    token: str
    name: str
    parked: Backlog[bytes]
    ledger: SessionLedger[SubscriptionPattern]
    keepalive: float | None = None
    session: Any | None = None
    udp_address: tuple[str, int] | None = None
    deadline: float | None = None
    #: True when the client announced batch_datagrams support: same-pump
    #: deliveries pack into §7 batch datagrams instead of one datagram
    #: each.
    batch: bool = False
    outbox: list[bytes] = dataclasses.field(default_factory=list)

    @property
    def parked_now(self) -> bool:
        return self.udp_address is None


@dataclasses.dataclass(eq=False)
class _ClientConnection:
    """Server-side state for one TCP control connection."""

    peer_host: str
    writer: asyncio.StreamWriter | None
    state: _SessionState | None = None
    assembler: ControlFrameAssembler = dataclasses.field(
        default_factory=ControlFrameAssembler
    )
    last_activity: float = 0.0
    last_renewal: float = 0.0

    @property
    def session(self) -> Any | None:
        return self.state.session if self.state is not None else None


class _DataPlaneProtocol:
    """The receive seam: one call per datagram read off the data plane."""

    def __init__(self, broker: "LiveBroker") -> None:
        self._broker = broker

    def datagram_received(self, data: bytes, addr) -> int:
        """Hand one datagram to the broker; the frames it carried."""
        # ``addr`` is accounted for once per drain (``_after_drain``).
        return self._broker._on_datagram(data)


class _DataPlaneSocket:
    """The broker's UDP socket, driven by the loop's reader/writer hooks.

    Receive: on readiness, read until the socket is dry or
    ``_DRAIN_BUDGET`` frames are in, hand each datagram to the protocol,
    then pump once (which sends what the drain delivered). Send: straight to
    ``sendto``; a datagram the kernel's buffer has no room for joins a
    bounded FIFO that an ``add_writer`` callback flushes in order.
    """

    def __init__(
        self,
        broker: "LiveBroker",
        loop: asyncio.AbstractEventLoop,
        sock: socket.socket,
    ) -> None:
        self._broker = broker
        self._loop = loop
        self._sock: socket.socket | None = sock
        self._protocol = _DataPlaneProtocol(broker)
        self._send_queue: Backlog[tuple[bytes, Any]] = Backlog(
            _SEND_QUEUE_CAPACITY, broker._datagrams_dropped
        )
        # True exactly while ``_send_queue`` holds datagrams and the
        # writer hook is armed: the per-datagram empty test is a flag
        # read, not a ``Backlog.__len__`` call.
        self._blocked = False
        loop.add_reader(sock.fileno(), self._on_readable)

    def get_extra_info(self, name: str, default: Any = None) -> Any:
        if name == "sockname" and self._sock is not None:
            return self._sock.getsockname()
        return default

    def _on_readable(self) -> None:
        sock = self._sock
        received = self._protocol.datagram_received
        # One clock read per drain stamps its arrivals.
        self._broker._drain_stamp = time.time()
        senders: list[Any] = []
        frames = 0
        try:
            while frames < _DRAIN_BUDGET:
                try:
                    data, addr = sock.recvfrom(_MAX_DATAGRAM)
                except BlockingIOError:
                    break
                except OSError:
                    # A queued ICMP error for an earlier send; it carries
                    # no datagram and the socket stays usable.
                    continue
                senders.append(addr)
                frames += received(data, addr)
        finally:
            self._broker._after_drain(senders)

    def sendto(self, data: bytes, addr) -> None:
        """Send now, or queue behind what is already waiting.

        After :meth:`close` this is a no-op, like a closed asyncio
        transport.
        """
        sock = self._sock
        if sock is None:
            return
        if not self._blocked:
            try:
                sock.sendto(data, addr)
                return
            except BlockingIOError:
                self._blocked = True
                self._loop.add_writer(sock.fileno(), self._on_writable)
            except OSError:
                # Unsendable (too large for UDP, unreachable peer): lost
                # like any datagram the network drops.
                self._broker._datagrams_dropped.inc()
                return
        self._send_queue.append((data, addr))

    def _on_writable(self) -> None:
        sock = self._sock
        waiting = self._send_queue.drain()
        for sent, (data, addr) in enumerate(waiting):
            try:
                sock.sendto(data, addr)
            except BlockingIOError:
                for datagram in waiting[sent:]:
                    self._send_queue.append(datagram)
                return
            except OSError:
                self._broker._datagrams_dropped.inc()
        self._blocked = False
        self._loop.remove_writer(sock.fileno())

    def close(self) -> None:
        sock = self._sock
        if sock is None:
            return
        self._sock = None
        self._loop.remove_reader(sock.fileno())
        self._loop.remove_writer(sock.fileno())
        self._send_queue.drain()
        sock.close()


class LiveBroker:
    """Asyncio server carrying a deployment's consumer surface.

    Use from an event loop::

        broker = LiveBroker()
        await broker.start()
        ...
        await broker.stop()

    ``control_port`` / ``data_port`` are the bound ports (resolved after
    :meth:`start` when 0 was requested). ``garnet-broker`` (the CLI) is
    a thin wrapper over this class.

    The deployment config's ``transport_resume_grace`` enables session
    parking and resume tokens; ``sessions_path`` additionally persists
    the resumable session table as JSON so RESUME survives a broker
    restart.
    """

    def __init__(
        self,
        deployment: Any | None = None,
        host: str = "127.0.0.1",
        control_port: int = 0,
        data_port: int = 0,
        sessions_path: str | Path | None = None,
    ) -> None:
        if deployment is None:
            # No sensors and no periodic tasks: the kernel must drain to
            # idle after every injected event, so the location beacon
            # stays off.
            deployment = Garnet(
                config=GarnetConfig(publish_location_stream=False)
            )
        self.deployment = deployment
        config = self.deployment.config
        self.host = host
        self._requested_control_port = control_port
        self._requested_data_port = data_port
        self.control_port: int | None = None
        self.data_port: int | None = None
        self._resume_grace = config.transport_resume_grace
        self._sessions_path = (
            Path(sessions_path) if sessions_path is not None else None
        )
        self._codec = self.deployment.codec
        #: Every monotonic "now" the broker reads: activity stamps, lease
        #: throttling and expiry, park deadlines (``loop.time()`` is this).
        self._clock = time.monotonic
        self._drain_stamp = 0.0
        #: The drain's run of one stream, until another stream or the end.
        self._run: FrameRun | None = None
        #: Sessions with frames in their outbox, in first-delivery order;
        #: the next pump sends each one's share.
        self._outboxes: dict[str, _SessionState] = {}
        self._server: asyncio.AbstractServer | None = None
        self._udp: _DataPlaneSocket | None = None
        self._closed = asyncio.Event()
        self._connections: set[_ClientConnection] = set()
        self._serve_tasks: set[asyncio.Task] = set()
        self._states: dict[str, _SessionState] = {}
        self._udp_peers: dict[tuple[str, int], _ClientConnection] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._housekeeper: asyncio.Task | None = None
        metrics = self.deployment.metrics()
        self._datagrams_in = metrics.counter(
            "transport.datagrams_in", help="data-plane datagrams received"
        )
        self._datagrams_out = metrics.counter(
            "transport.datagrams_out", help="data-plane datagrams sent"
        )
        self._bad_datagrams = metrics.counter(
            "transport.bad_datagrams",
            help="malformed batches, and bare frames the codec rejected",
        )
        self._bad_frames = metrics.counter(
            "transport.bad_frames", help="rejected frames in good batches"
        )
        self._datagrams_dropped = metrics.counter(
            "transport.datagrams_dropped",
            help="outbound datagrams evicted from the full send queue, "
            "refused by the OS, or too large for any UDP datagram",
        )
        self._pumps = metrics.counter(
            "transport.pumps",
            help="kernel drains (one per socket drain or control event)",
        )
        self._dispatch_errors = metrics.counter(
            "transport.dispatch_errors",
            help="deliveries that raised, and runs whose dispatch raised",
        )
        self._control_frames = metrics.counter(
            "transport.control_frames", help="control-plane requests served"
        )
        self._unknown_control = metrics.counter(
            "transport.unknown_control_frames",
            help="control frames of unknown type refused",
        )
        self._sessions_parked = metrics.counter(
            "transport.sessions_parked",
            help="sessions parked after an unclean disconnect",
        )
        self._sessions_resumed = metrics.counter(
            "transport.sessions_resumed",
            help="parked sessions re-attached via RESUME",
        )
        self._sessions_reaped = metrics.counter(
            "transport.sessions_reaped",
            help="sessions torn down by grace expiry or lease reaping",
        )
        self._replayed_records = metrics.counter(
            "transport.replayed_records",
            help="missed records replayed to resuming clients",
        )
        self._parked_dropped = metrics.counter(
            "transport.parked_deliveries_dropped",
            help="parked deliveries evicted by the park-capacity bound",
        )
        self._nack_records = metrics.counter(
            "transport.nack_records",
            help="gap-repair records served from the store",
        )
        self._encode_reuse = metrics.counter(
            "transport.encode_reuse",
            help="deliveries whose message already remembered its frame",
        )
        self._batch_datagrams = metrics.counter(
            "transport.batch_datagrams",
            help="§7 batch datagrams sent on the data plane",
        )
        self._batched_frames = metrics.counter(
            "transport.batched_frames",
            help="data frames carried inside batch datagrams",
        )
        self._batch_datagrams_in = metrics.counter(
            "transport.batch_datagrams_in",
            help="§7 batch datagrams received on the data plane",
        )
        self._batched_frames_in = metrics.counter(
            "transport.batched_frames_in",
            help="data frames received inside batch datagrams",
        )
        self._drain_datagrams = metrics.histogram(
            "transport.drain_datagrams",
            buckets=(1, 2, 4, 8, 16, 32, _DRAIN_BUDGET),
            help="datagrams read per data-plane drain",
        )
        # A consumer that raises loses only that delivery: counted and
        # logged here, while the rest of its run and the other consumers
        # still get theirs.
        self.deployment.dispatcher.install(
            delivery_errors=self._dispatch_failed
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        # Every pump runs the kernel until it idles; a PeriodicTask never
        # lets it, and the first pump would spin forever.
        self.deployment.run_until_idle(max_events=_IDLE_PROBE_EVENTS)
        if self.deployment.sim.pending_events:
            raise ConfigurationError(
                "LiveBroker needs a deployment whose kernel drains to idle, "
                f"but events remain after running {_IDLE_PROBE_EVENTS}: a "
                "periodic task (cluster_enabled, publish_location_stream "
                "and QoS degradation each start one) never lets a pump return"
            )
        self._loop = loop
        # Wall clocks while serving (virtual time only moves when a pump
        # finds a control event): leases on the clock their renewals are
        # throttled on, arrival stamps on one that survives a restart.
        self.deployment.broker.lease_clock = self._clock
        self.deployment.arrival_clock = time.time
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._requested_control_port
        )
        self.control_port = self._server.sockets[0].getsockname()[1]
        # Raise the receive buffer before traffic arrives: client publish
        # bursts have no flow control, and the default buffer drops most
        # of one.
        udp_socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            udp_socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22
            )
        except OSError:  # pragma: no cover - kernel may clamp
            pass
        udp_socket.setblocking(False)
        udp_socket.bind((self.host, self._requested_data_port))
        self._udp = _DataPlaneSocket(self, loop, udp_socket)
        self.data_port = self._udp.get_extra_info("sockname")[1]
        self._load_sessions()
        if self._resume_grace is not None or self._lease_ttl is not None:
            self._housekeeper = loop.create_task(self._housekeeping_loop())

    async def stop(self) -> None:
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._housekeeper
            self._housekeeper = None
        # Persist the resumable table *before* closing the sessions so a
        # restarted broker can still honour their tokens; from here on
        # the file is that broker's, and the teardown below leaves it be.
        self._persist_sessions()
        self._sessions_path = None
        # Abort the client sockets so peers see EOF/RST immediately —
        # otherwise their next request blocks for a full timeout. Each
        # is detached first, so its EOF finds nothing left to park.
        for connection in list(self._connections):
            self._detach(connection, park=False)
            self._abort_connection(connection)
        for state in list(self._states.values()):
            self._drop_state(state)
        if self._udp is not None:
            self._udp.close()
            self._udp = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._serve_tasks:
            await asyncio.gather(
                *self._serve_tasks, return_exceptions=True
            )
        self._pump()
        self.deployment.broker.lease_clock = None
        self.deployment.arrival_clock = None
        self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    @property
    def url(self) -> str:
        if self.control_port is None:
            raise TransportError("broker not started")
        return f"garnet://{self.host}:{self.control_port}"

    @property
    def _lease_ttl(self) -> float | None:
        return self.deployment.broker.lease_ttl

    def _pump(self) -> None:
        """Run what the event left on the bus, then send what it delivered."""
        self._pumps.inc()
        try:
            self.deployment.run_until_idle()
        finally:
            if self._outboxes:
                self._flush_sends()

    def _flush_sends(self) -> None:
        """The data plane's one ``sendto`` loop: each session's frames in
        arrival order, packed into §7 batch datagrams
        (``MAX_BATCH_DATAGRAM`` bytes each) for a client that asked; a
        frame alone keeps the bare shape. A frame no UDP datagram can
        carry (an in-process publish can build one) is dropped and
        counted once per recipient, and the rest still go out."""
        pending, self._outboxes = self._outboxes, {}
        udp = self._udp
        for state in pending.values():
            datagrams, state.outbox = state.outbox, []
            if max(map(len, datagrams), default=0) > MAX_UDP_PAYLOAD:
                fitting = [d for d in datagrams if len(d) <= MAX_UDP_PAYLOAD]
                self._datagrams_dropped.inc(len(datagrams) - len(fitting))
                datagrams = fitting
            if state.batch:
                count = len(datagrams)
                datagrams = encode_batch_datagrams(datagrams)
                batches = sum(map(is_batch_datagram, datagrams))
                self._batch_datagrams.inc(batches)
                # Each bare datagram is one frame; the rest rode in batches.
                self._batched_frames.inc(count - len(datagrams) + batches)
            if udp is None:
                # The pump inside stop(), socket already closed: lost,
                # but counted.
                self._datagrams_dropped.inc(len(datagrams))
                continue
            for datagram in datagrams:
                udp.sendto(datagram, state.udp_address)
            self._datagrams_out.inc(len(datagrams))

    # ------------------------------------------------------------------
    # Session persistence (RESUME across broker restarts)
    # ------------------------------------------------------------------
    def _persist_sessions(self) -> None:
        if self._sessions_path is None:
            return
        payload = {
            token: {"name": state.name, **state.ledger.to_record()}
            for token, state in self._states.items()
        }
        tmp = self._sessions_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=0, sort_keys=True))
        tmp.replace(self._sessions_path)

    def _load_sessions(self) -> None:
        if (
            self._sessions_path is None
            or self._resume_grace is None
            or not self._sessions_path.exists()
        ):
            return
        try:
            payload = json.loads(self._sessions_path.read_text())
        except (OSError, json.JSONDecodeError):
            return  # a torn sessions file costs resumability, not uptime
        deadline = self._clock() + self._resume_grace
        for token, record in payload.items():
            try:
                ledger = SessionLedger.from_record(record, _persisted_pattern)
                state = _SessionState(
                    token, str(record["name"]), self._parked_backlog(), ledger
                )
                if ledger.publisher_id is not None:
                    # Hold the id until the session resumes or expires, so
                    # a fresh client cannot be handed an id whose streams
                    # (and subscriber dedupe state) already exist.
                    self.deployment.reserve_publisher_id(ledger.publisher_id)
            except (GarnetError, LookupError, TypeError, ValueError):
                continue  # unreadable, duplicate or garbage: not resumable
            state.deadline = deadline
            self._states[token] = state

    # ------------------------------------------------------------------
    # Housekeeping: liveness, leases, park expiry
    # ------------------------------------------------------------------
    async def _housekeeping_loop(self) -> None:
        bounds = [1.0]
        if self._resume_grace is not None:
            bounds.append(self._resume_grace / 4)
        if self._lease_ttl is not None:
            bounds.append(self._lease_ttl / 4)
        period = max(0.05, min(bounds))
        while True:
            await asyncio.sleep(period)
            self._housekeeping_tick()

    def _housekeeping_tick(self) -> None:
        now = self._clock()
        if self._lease_ttl is not None:
            # Parked sessions are the broker's promise: keep their
            # leases warm for the whole grace window.
            for state in self._states.values():
                if state.parked_now and state.session is not None:
                    state.session.heartbeat()
            self.deployment.broker.reap_expired_leases()
            leases = self.deployment.broker
            for connection in list(self._connections):
                session = connection.session
                if session is None:
                    continue
                if leases.lease_expiry(session.endpoint) is None:
                    # Lease expired: torn fully down, no park, no resume.
                    self._sessions_reaped.inc()
                    self._detach(connection, park=False)
                    self._abort_connection(connection)
        # Missed keepalives: a client that declared a PING period and
        # went silent (blackhole, frozen process) is cut off; the
        # disconnect path then parks or drops it per resume policy.
        for connection in list(self._connections):
            state = connection.state
            if state is None or not state.keepalive:
                continue
            idle_limit = max(3.0 * state.keepalive, 1.0)
            if now - connection.last_activity > idle_limit:
                self._abort_connection(connection)
        for state in list(self._states.values()):
            if (
                state.parked_now
                and state.deadline is not None
                and now > state.deadline
            ):
                self._sessions_reaped.inc()
                self._drop_state(state)
        self._pump()

    def _abort_connection(self, connection: _ClientConnection) -> None:
        if connection.writer is not None:
            transport = connection.writer.transport
            if transport is not None:
                transport.abort()

    # ------------------------------------------------------------------
    # Attaching a session to a connection, and taking it off again
    # ------------------------------------------------------------------
    def _bind(
        self, connection: _ClientConnection, state: _SessionState, fields: dict
    ) -> None:
        """What HELLO and RESUME both do once ``state`` has its session."""
        state.udp_address = (connection.peer_host, fields["udp_port"])
        state.keepalive = fields["keepalive"]
        state.batch = bool(fields["batch_datagrams"])
        state.deadline = None
        connection.state = state
        self._udp_peers[state.udp_address] = connection

    def _unbind(self, connection: _ClientConnection) -> _SessionState | None:
        """The only inverse of :meth:`_bind`; returns the state taken off."""
        state, connection.state = connection.state, None
        if state is not None:
            # A later client may have announced the same address: the
            # peer entry goes only while it still names this connection.
            if self._udp_peers.get(state.udp_address) is connection:
                del self._udp_peers[state.udp_address]
            state.udp_address = None
        return state

    def _detach(self, connection: _ClientConnection, park: bool) -> None:
        """Unbind, then park the session for a RESUME or drop it for good.

        All that CLOSE, EOF, lease reaping and :meth:`stop` do to a
        client. Parking needs a grace window to park it for.
        """
        state = self._unbind(connection)
        if state is None:
            return
        if not park or self._resume_grace is None:
            self._drop_state(state)
            return
        if state.outbox:
            # Unflushed deliveries must survive the park window like any
            # other in-flight delivery.
            self._outboxes.pop(state.token, None)
            for frame in state.outbox:
                state.parked.append(frame)
            state.outbox = []
        state.deadline = self._clock() + self._resume_grace
        self._sessions_parked.inc()
        self._persist_sessions()

    def _drop_state(self, state: _SessionState) -> None:
        """Close the server-side session and free everything it held."""
        self._states.pop(state.token, None)
        self._outboxes.pop(state.token, None)
        state.outbox = []
        session = state.session
        state.session = None
        if session is not None and not session.closed:
            session.close()
        ledger = state.ledger
        if ledger.publisher_id is not None:
            try:
                self.deployment.release_publisher_id(ledger.publisher_id)
            except ValueError:
                pass  # never allocated server-side (revival failed early)
            ledger.publisher_id = None
        self._persist_sessions()

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _after_drain(self, senders: list) -> None:
        """Once per drain: dispatch its last run, count it, note who was
        heard from, pump."""
        try:
            self._dispatch_run()
            self._datagrams_in.inc(len(senders))
            self._drain_datagrams.observe(len(senders))
            now = self._clock()
            for connection in map(self._udp_peers.get, set(senders)):
                if connection is not None:
                    connection.last_activity = now
                    self._maybe_renew_lease(connection)
        finally:
            self._pump()

    def _on_datagram(self, data: bytes) -> int:
        """Walk one datagram's frames onto the drain's current run; a
        frame of another stream first hands that run to the dispatcher.
        Returns the frames the datagram carried (a malformed batch is
        one bad datagram, a rejected frame in a good one a bad frame)."""
        try:
            frames = datagram_frames(data)
        except TransportError:
            self._bad_datagrams.inc()
            return 1
        count = len(frames)
        stretches, rejected = self._codec.walk(frames)
        if count > 1:
            self._batch_datagrams_in.inc()
            self._batched_frames_in.inc(count)
        if rejected:
            (self._bad_frames if count > 1 else self._bad_datagrams).inc(rejected)
        for stream_id, *stretch in stretches:
            if self._run is not None and self._run.stream_id == stream_id:
                self._run.extend(*stretch)
            else:
                self._dispatch_run()
                self._run = FrameRun(stream_id, self._drain_stamp, *stretch)
        return count

    def _dispatch_run(self) -> None:
        """One dispatcher call for the run, if any: routed and stored once."""
        run, self._run = self._run, None
        if run is None:
            return
        try:
            self.deployment.dispatcher.on_arrival(run)
        except Exception as exc:
            # What no delivery caught costs this run, not the drain.
            self._dispatch_failed(exc)

    def _dispatch_failed(self, exc: Exception) -> None:
        """Count one failure on the data path and hand it to the loop."""
        self._dispatch_errors.inc()
        self._loop.call_exception_handler(
            {"message": "live dispatch failed", "exception": exc}
        )

    def _attach(self, state: _SessionState, session: Any) -> None:
        """Deliver the server-side session's runs to ``state``, inline."""
        state.session = session
        session.deliver_inline(functools.partial(self._forward_run, state))

    def _parked_backlog(self) -> Backlog[bytes]:
        """A session's buffer for deliveries while its client is away."""
        return Backlog(_PARK_CAPACITY, self._parked_dropped)

    def _forward_run(
        self, state: _SessionState, run: Iterable[StreamArrival]
    ) -> None:
        """The server-side session's run leg: queue a drain's frames, or
        those a run's messages came from, for the pump, or park them. A
        message born in this process is encoded once for all recipients."""
        if run.__class__ is FrameRun:
            frames, reused = run.frames, len(run.frames)
        else:
            frames, reused = self._codec.encode_run(map(attrgetter("message"), run))
        self._encode_reuse.inc(reused)
        if state.udp_address is None:
            for frame in frames:
                state.parked.append(frame)
        elif frames:
            state.outbox += frames
            self._outboxes[state.token] = state

    def _maybe_renew_lease(self, connection: _ClientConnection) -> None:
        if self._lease_ttl is None or connection.session is None:
            return
        now = self._clock()
        if now - connection.last_renewal < min(1.0, self._lease_ttl / 4):
            return
        connection.last_renewal = now
        connection.session.heartbeat()

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _accept(
        self, peer_host: str, writer: asyncio.StreamWriter | None = None
    ) -> _ClientConnection:
        connection = _ClientConnection(peer_host, writer)
        connection.last_activity = self._clock()
        self._connections.add(connection)
        return connection

    def _on_disconnect(self, connection: _ClientConnection) -> None:
        """EOF, reset or a corrupt stream: whatever ended the connection."""
        self._connections.discard(connection)
        self._detach(connection, park=True)
        self._pump()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        connection = self._accept(peer[0] if peer else self.host, writer)
        task = asyncio.current_task()
        self._serve_tasks.add(task)
        task.add_done_callback(self._serve_tasks.discard)
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                try:
                    frames = connection.assembler.feed(chunk)
                except TransportError:
                    break  # corrupt stream: drop the connection
                closing = False
                for frame_type, body in frames:
                    response = self._handle_frame(
                        connection, frame_type, body
                    )
                    writer.write(
                        encode_control_frame(
                            frame_type | RESPONSE_FLAG, response
                        )
                    )
                    if frame_type == CLOSE:
                        closing = True
                await writer.drain()
                if closing:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._on_disconnect(connection)
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    def _handle_frame(
        self, connection: _ClientConnection, frame_type: int, body: dict
    ) -> dict:
        """Answer one request. A refused frame has had no side effect:
        the body is checked whole before its handler sees any of it."""
        self._control_frames.inc()
        connection.last_activity = self._clock()
        try:
            handler = self._HANDLERS.get(frame_type)
            if handler is None:
                self._unknown_control.inc()
                raise TransportError(f"unknown frame type 0x{frame_type:02x}")
            if frame_type in (HELLO, RESUME):
                if connection.state is not None:
                    raise TransportError("session already established")
            elif connection.session is None:
                raise TransportError("HELLO must precede other frames")
            else:
                self._maybe_renew_lease(connection)
            return handler(
                self, connection, parse_control_body(frame_type, body)
            )
        except GarnetError as exc:
            return {"ok": False, "error": str(exc)}

    # ------------------------------------------------------------------
    def _on_hello(self, connection: _ClientConnection, fields: dict) -> dict:
        name = fields["name"]
        if self._resume_grace is not None:
            # A re-HELLO with a parked session's name means the client
            # lost its token; the parked ghost yields to the live one.
            for state in list(self._states.values()):
                if state.name == name and state.parked_now:
                    self._drop_state(state)
        session = self.deployment.connect(name, heartbeat_period=None)
        try:
            session.ensure_publisher_id()
        except GarnetError:
            session.close()  # a refused HELLO keeps no claim on the name
            raise
        token = secrets.token_hex(16)
        state = _SessionState(token, name, self._parked_backlog(), session.ledger)
        self._attach(state, session)
        self._bind(connection, state, fields)
        self._pump()
        if self._resume_grace is not None:
            self._states[state.token] = state
            self._persist_sessions()
        return self._welcome(state)

    def _welcome(self, state: _SessionState) -> dict:
        """What HELLO answers and RESUME echoes: where the session stands."""
        response = {
            "ok": True,
            "publisher_id": state.ledger.publisher_id,
            "data_port": self.data_port,
            "batch_datagrams": state.batch,
        }
        if self._lease_ttl is not None:
            response["lease_ttl"] = self._lease_ttl
        if self._resume_grace is not None:
            response["resume_token"] = state.token
            response["resume_grace"] = self._resume_grace
        return response

    def _on_close(self, connection: _ClientConnection, fields: dict) -> dict:
        self._detach(connection, park=False)
        self._pump()
        return {"ok": True}

    def _on_ping(self, connection: _ClientConnection, fields: dict) -> dict:
        return {"ok": True, "time": self.deployment.now()}

    # ------------------------------------------------------------------
    # Resume + gap repair
    # ------------------------------------------------------------------
    def _on_resume(self, connection: _ClientConnection, fields: dict) -> dict:
        if self._resume_grace is None:
            raise TransportError("this broker does not issue resume tokens")
        state = self._states.get(fields["token"])
        if state is None:
            raise TransportError("unknown or expired resume token")
        if not state.parked_now:
            # The client re-dialed before this side noticed the old
            # socket die: the new connection wins, the stale one is
            # unbound and aborted rather than refusing the resume.
            for stale in list(self._connections):
                if stale.state is state:
                    self._unbind(stale)
                    self._abort_connection(stale)
        restored = state.session is not None
        if not restored:
            self._revive_state(state)
        self._bind(connection, state, fields)
        self._sessions_resumed.inc()
        self._pump()
        replayed_store, replayed_parked = self._replay_missed(
            state, fields["cursors"] or {}
        )
        self._persist_sessions()
        return {
            **self._welcome(state),
            "restored": restored,
            "replayed": replayed_store + replayed_parked,
            "replayed_store": replayed_store,
            "replayed_parked": replayed_parked,
        }

    def _revive_state(self, state: _SessionState) -> None:
        """A persisted session on a restarted broker: connect, adopt."""
        session = self.deployment.connect(state.name, heartbeat_period=None)
        try:
            self._attach(state, session)
            session.adopt(state.ledger)
        except GarnetError:
            session.close()
            state.session = None
            raise

    def _stored_frames(
        self, stream_id: StreamId, **window: Any
    ) -> Iterator[tuple[int, Any]]:
        """``(sequence, record)`` per retained record of one stream,
        oldest first; nothing without a store."""
        store = self.deployment.store
        if store is not None:
            for record in store.read(stream_id, **window):
                yield peek_header(record.frame)[1], record

    def _replay_missed(
        self, state: _SessionState, cursors: dict[StreamId, int]
    ) -> tuple[int, int]:
        """Send exactly the records the client missed, exactly once.

        Store records past each per-stream cursor first (gap-free even
        when the park buffer overflowed), then parked deliveries the
        store pass did not already cover. Without a store the parked
        buffer alone is replayed, still filtered by the cursors.
        """
        sent: set[tuple[StreamId, int]] = set()
        to_send: list[bytes] = []
        for stream_id, cursor in cursors.items():
            for sequence, record in self._stored_frames(stream_id):
                if (
                    sequence_is_newer(sequence, cursor)
                    and (stream_id, sequence) not in sent
                ):
                    sent.add((stream_id, sequence))
                    to_send.append(record.frame)
        replayed_store = len(to_send)
        for frame in state.parked.drain():
            key = peek_header(frame)
            cursor = cursors.get(key[0])
            if key not in sent and (
                cursor is None or sequence_is_newer(key[1], cursor)
            ):
                sent.add(key)
                to_send.append(frame)
        if to_send:
            # Batching clients take the whole catch-up span as §7 batch
            # datagrams; everyone else gets the per-record replay.
            state.outbox += to_send
            self._outboxes[state.token] = state
            self._flush_sends()
            self._replayed_records.inc(len(to_send))
        return replayed_store, len(to_send) - replayed_store

    def _on_nack(self, connection: _ClientConnection, fields: dict) -> dict:
        wanted = set(fields["sequences"])
        retained: dict[int, bytes] = {}  # first copy of each, oldest first
        for sequence, record in self._stored_frames(fields["stream_id"]):
            if sequence in wanted and sequence not in retained:
                retained[sequence] = record.frame
                if len(retained) == len(wanted):
                    break
        # A retained record this response has no room for is neither
        # sent nor missing: the client still wants it, and asks again.
        records = list(_hex_within_budget(retained.values()))
        if records:
            self._nack_records.inc(len(records))
        return {
            "ok": True,
            "records": records,
            "missing": sorted(wanted - retained.keys()),
        }

    # ------------------------------------------------------------------
    def _on_subscribe(
        self, connection: _ClientConnection, fields: dict
    ) -> dict:
        subscription_id = connection.session.subscribe(
            _pattern(fields), replay=fields["replay"] or "none"
        )
        self._persist_sessions()
        self._pump()
        return {"ok": True, "subscription_id": subscription_id}

    def _on_unsubscribe(
        self, connection: _ClientConnection, fields: dict
    ) -> dict:
        connection.session.unsubscribe(fields["subscription_id"])
        self._persist_sessions()
        self._pump()
        return {"ok": True}

    def _on_query(self, connection: _ClientConnection, fields: dict) -> dict:
        store = self.deployment.store
        if store is None:
            raise TransportError(
                "this broker has no stream store (store_enabled=False)"
            )
        records = [
            record
            for _, record in self._stored_frames(
                fields["stream_id"],
                start=fields["start"],
                end=fields["end"],
                limit=fields["limit"],
            )
        ]
        store.stats.queries += 1
        store.stats.records_queried += len(records)
        fitting = _hex_within_budget(record.frame for record in records)
        entries = [
            {
                "received_at": record.received_at,
                "receiver_id": record.receiver_id,
                "frame": hex_frame,
            }
            for record, hex_frame in zip(records, fitting)
        ]
        return {
            "ok": True,
            "records": entries,
            "truncated": len(entries) < len(records),
        }

    def _on_discover(
        self, connection: _ClientConnection, fields: dict
    ) -> dict:
        descriptors = connection.session.discover(**fields)
        return {
            "ok": True,
            "streams": [
                {
                    "sensor_id": d.stream_id.sensor_id,
                    "stream_index": d.stream_id.stream_index,
                    "kind": d.kind,
                    "publisher": d.publisher,
                    "encrypted": d.encrypted,
                    "derived": d.is_derived,
                }
                for d in descriptors
            ],
        }

    def _on_advertise(
        self, connection: _ClientConnection, fields: dict
    ) -> dict:
        stream_id = connection.session.advertise(
            fields["stream_index"],
            fields["kind"] or "",
            bool(fields["encrypted"]),
        )
        self._persist_sessions()
        self._pump()
        return {
            "ok": True,
            "stream_id": [stream_id.sensor_id, stream_id.stream_index],
        }

    #: The whole request vocabulary: frame type → handler, called with
    #: the connection and the body's checked fields.
    _HANDLERS = {
        HELLO: _on_hello,
        SUBSCRIBE: _on_subscribe,
        UNSUBSCRIBE: _on_unsubscribe,
        DISCOVER: _on_discover,
        ADVERTISE: _on_advertise,
        PING: _on_ping,
        CLOSE: _on_close,
        QUERY: _on_query,
        RESUME: _on_resume,
        NACK: _on_nack,
    }


__all__ = ["LiveBroker"]
