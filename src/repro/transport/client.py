"""LiveSession: the socket client mirroring the GarnetSession surface.

``connect("garnet://host:port", name)`` opens two sockets against a
running :class:`~repro.transport.broker.LiveBroker` (or the
``garnet-broker`` CLI):

- a **TCP** connection for the control plane — requests are synchronous
  (send a frame, block for its response), serialised under a lock;
- a **UDP** socket for the data plane — publishes go out as Figure 2
  frames, and a daemon reader thread decodes incoming delivery
  datagrams into :class:`~repro.core.envelopes.StreamArrival` values for
  the ``on_data`` callbacks (the same callback shape simulated sessions
  use, so consumer code ports across transports unchanged). A §7 batch
  datagram is delivered as one unit, and callbacks never run
  concurrently.

**Publish batching.** A publish queues its frame on the session; the
queue leaves as §7 batch datagrams (a lone frame stays bare) on the
first of three triggers: the process's one flusher thread, woken when
the queue goes from empty to non-empty, which runs as soon as the
publishing thread lets go of the interpreter (the end of its burst);
the queue reaching ``MAX_BATCH_DATAGRAM`` bytes; and any control
request or ``close()``, so data published before a control frame
leaves before it.

The client is deliberately synchronous: experiment drivers and tests
want straight-line code, and the broker end is where the concurrency
lives.

**Resilience.** ``reconnect=`` (a
:class:`~repro.util.backoff.BackoffPolicy`, or ``True`` for the
default schedule) opts the session into a supervised lifecycle:

- delivery datagrams are deduplicated per stream through a
  :class:`~repro.util.ids.SequenceWindow` and their 16-bit
  sequences tracked; gaps trigger NACK repair requests answered from
  the broker's stream store (``gaps_repaired`` /
  ``gaps_unrepairable``). A sequence in the gap ledger was never
  delivered, so its repair is accepted however far behind it is;
- a housekeeping thread sends keepalive PINGs (period ``keepalive``,
  default 1s when reconnect is on); a failed PING — or any control
  request that hits a TCP EOF / timeout — flips the session to
  ``"reconnecting"`` and starts the backoff-driven re-dial loop;
- each dial first presents the broker's resume token (RESUME), which
  re-attaches the parked server-side session and replays only records
  past the client's per-stream cursors; a refused token falls back to
  a fresh HELLO that reinstalls the session's ledger, so the
  subscription ids the caller holds stay valid either way;
- publishes during an outage land in a bounded buffer and are flushed
  on re-attach, behind a resend tail of the most recent pre-outage
  publishes (at-least-once across the failure window; subscriber-side
  sequence windows and the broker's store dedupe the overlap);
- ``on_state`` observers see ``"connected"`` / ``"reconnecting"`` /
  ``"closed"`` transitions.

With ``reconnect=None`` (the default) nothing above activates and the
session keeps its historical fail-fast behaviour.
"""

from __future__ import annotations

import contextlib
import functools
import queue
import random
import socket
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from typing import Any

from repro.core.envelopes import StreamArrival
from repro.core.message import DataMessage, MessageCodec, common_frame
from repro.core.session import SessionLedger
from repro.core.streamid import StreamId
from repro.errors import (
    ConfigurationError,
    GarnetError,
    RegistrationError,
    TransportError,
)
from repro.fanout.frames import (
    BATCH_FRAME_PREFIX,
    BATCH_HEADER_SIZE,
    MAX_BATCH_DATAGRAM,
    datagram_frames,
    encode_batch_datagrams,
)
from repro.obs.stats import RegistryBackedStats
from repro.transport.base import parse_garnet_url
from repro.transport.framing import (
    ADVERTISE,
    CLOSE,
    CONTROL_FRAME_NAMES,
    DISCOVER,
    HELLO,
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
)
from repro.util.backoff import BackoffPolicy
from repro.util.ids import SEQUENCE_WINDOW, SequenceWindow

DataCallback = Callable[[StreamArrival], None]
StateCallback = Callable[[str], None]

#: Ask the kernel for a generous datagram receive buffer: loopback UDP
#: still drops when a burst outruns the reader thread.
_RECV_BUFFER = 1 << 22

#: The re-dial schedule ``reconnect=True`` selects.
DEFAULT_RECONNECT_POLICY = BackoffPolicy(
    base=0.1, multiplier=2.0, max_delay=2.0, jitter=0.1, max_attempts=8
)

#: Keepalive PING period adopted when reconnect is enabled but no
#: explicit ``keepalive`` was given.
_DEFAULT_KEEPALIVE = 1.0

#: A detected gap older than this (seconds) is NACKed for repair.
_REPAIR_DELAY = 0.2

#: At most this many missing sequences per NACK frame.
_NACK_BATCH = 64

#: Cap on sequences recorded as missing from one observed jump; a jump
#: wider than this is treated as a stream restart, not a gap.
_MAX_GAP_RUN = 512

#: Bounded buffer of publishes made while reconnecting.
_PUBLISH_BUFFER = 1024

#: Ring of recent publishes re-sent after a resume (the broker may have
#: died before our last datagrams reached the store).
_RESEND_TAIL = 256

#: Housekeeping thread tick (seconds).
_HOUSEKEEPING_TICK = 0.05


def _advertise_body(stream_index: int, kind: str, encrypted: bool) -> dict:
    return {"stream_index": stream_index, "kind": kind, "encrypted": encrypted}


class _Flusher:
    """The process's one thread that sends what publishing sessions queued.

    ``soon(call)`` hands it a call, run in order. The wake-up is a
    C-level ``SimpleQueue``, so the thread runs as soon as the caller
    releases the interpreter, not on a timer.
    """

    def __init__(self) -> None:
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._starting = threading.Lock()

    def soon(self, call: Callable[[], None]) -> None:
        if self._thread is None:
            with self._starting:
                if self._thread is None:
                    thread = threading.Thread(
                        target=self._run, name="garnet-live-flusher", daemon=True
                    )
                    thread.start()
                    self._thread = thread
        self._calls.put(call)

    def _run(self) -> None:
        while True:
            call = self._calls.get()
            # A call counts its own send failures; nothing it raises may
            # stop every session's publishes.
            with contextlib.suppress(Exception):
                call()


_FLUSHER = _Flusher()


class _SocketWire:
    """All a :class:`LiveSession` asks of the outside world.

    Control channels to dial, one datagram socket, a clock, a way to
    wait and a way to run work soon on another thread — the session's
    only sockets, its only monotonic time and its only shared thread,
    made in one place so a test can hand it fakes instead.
    """

    clock = staticmethod(time.monotonic)

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._broker = (host, port)
        self._timeout = timeout
        self._closed = threading.Event()
        #: ``wait(seconds)`` sleeps; True as soon as the wire is closed.
        self.wait = self._closed.wait
        #: ``soon(call)`` runs ``call`` on the process's flusher thread.
        self.soon = _FLUSHER.soon
        # A wire that fails half-built closes what it had opened.
        with contextlib.ExitStack() as opened:
            #: The session's first control channel.
            self.control = opened.enter_context(self.dial())
            self._udp = opened.enter_context(
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            )
            try:
                self._udp.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, _RECV_BUFFER
                )
            except OSError:  # pragma: no cover - kernel may clamp, never raise
                pass
            # Bind on the interface the TCP connection resolved to, so the
            # broker's deliveries (addressed to that interface) reach us.
            self._udp.bind((self.control.getsockname()[0], 0))
            opened.pop_all()
        self.udp_port = self._udp.getsockname()[1]
        self.sendto = self._udp.sendto

    def dial(self) -> socket.socket:
        # The timeout stays on the socket after connect: every read too.
        return socket.create_connection(self._broker, timeout=self._timeout)

    def receive(self) -> bytes | None:
        """Block for the next datagram; None once the wire is closed."""
        try:
            data, _ = self._udp.recvfrom(65536)
        except OSError:
            return None
        return None if self._closed.is_set() else data

    def close(self) -> None:
        self._closed.set()
        # close() alone leaves a thread blocked in recvfrom() asleep;
        # shutdown() wakes it with an empty read (on Linux it also
        # raises ENOTCONN, the socket being unconnected).
        try:
            self._udp.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._udp.close()


class LiveSessionStats(RegistryBackedStats):
    """The ``live.*`` counters of one session, all monotonic, in a registry
    of its own (``stats.registry``): a live client has no deployment."""

    PREFIX = "live"
    deliveries: int = 0
    published: int = 0
    duplicates_dropped: int = 0
    callback_errors: int = 0
    bad_datagrams: int = 0
    batch_datagrams: int = 0
    batched_frames: int = 0
    batch_datagrams_out: int = 0
    batched_frames_out: int = 0
    send_errors: int = 0
    gaps_detected: int = 0
    gaps_repaired: int = 0
    gaps_unrepairable: int = 0
    reconnects: int = 0
    resumes: int = 0
    rehellos: int = 0
    replayed: int = 0
    buffered_publishes: int = 0
    buffer_overflows: int = 0
    tail_resends: int = 0
    keepalive_failures: int = 0


class _StreamTracker:
    """Per-stream delivery bookkeeping: dedupe window + gap ledger."""

    __slots__ = ("window", "missing")

    def __init__(self) -> None:
        self.window = SequenceWindow(SEQUENCE_WINDOW)
        self.missing: dict[int, float] = {}


class LiveSession:
    """A consumer session over real sockets.

    Mirrors the :class:`~repro.core.session.GarnetSession` API surface
    (``subscribe`` / ``unsubscribe`` / ``discover`` / ``publish`` /
    ``on_data`` / ``close``) so code written against the simulated
    middleware drives a live broker unchanged.
    """

    def __init__(
        self,
        url: str,
        name: str,
        timeout: float = 10.0,
        reconnect: BackoffPolicy | bool | None = None,
        keepalive: float | None = None,
    ) -> None:
        if not name:
            raise RegistrationError("connect() needs a session name")
        if timeout <= 0:
            raise ConfigurationError(
                f"connect timeout must be positive, got {timeout}"
            )
        self._name = name
        self._codec = MessageCodec()
        self._timeout = timeout
        self._callbacks: list[DataCallback] = []
        self._state_callbacks: list[StateCallback] = []
        # SUBSCRIBE bodies by the ids this session hands out.
        self._ledger: SessionLedger[dict] = SessionLedger()
        self._publish_sequences: dict[int, int] = {}
        self._streams: dict[int, tuple] = {}  # index -> (stream id, word)
        self._closed = False
        self._lock = threading.Lock()
        self._state_lock = threading.Lock()
        # Held across a delivery's tracking *and* callbacks (``_deliver``).
        self._delivery_lock = threading.Lock()
        self._assembler = ControlFrameAssembler()
        self.stats = stats = LiveSessionStats()
        # Hot-path counters, bound once: ``stats.x += n`` is two lookups.
        self._published = stats.counter("published")
        self._deliveries = stats.counter("deliveries")
        self._duplicates = stats.counter("duplicates_dropped")
        self._callback_errors = stats.counter("callback_errors")
        self._bad = stats.counter("bad_datagrams")
        self._batches = stats.counter("batch_datagrams")
        self._batched_frames = stats.counter("batched_frames")
        self._batches_out = stats.counter("batch_datagrams_out")
        self._batched_frames_out = stats.counter("batched_frames_out")
        self._send_errors = stats.counter("send_errors")
        self._trackers: dict[StreamId, _StreamTracker] = {}
        # Frames queued for the data plane (``_queue_frame``), their
        # batch size, and whether the flusher has a call on its way.
        self._send_lock = threading.Lock()
        self._queued: list[bytes] = []
        self._queued_size = BATCH_HEADER_SIZE
        self._flush_due = False
        self._woken_flush = functools.partial(self._flush_queued, True)

        if reconnect is True:
            reconnect = DEFAULT_RECONNECT_POLICY
        elif reconnect is not None and not isinstance(
            reconnect, BackoffPolicy
        ):
            raise ConfigurationError(
                "connect reconnect must be None, True or a BackoffPolicy, "
                f"got {reconnect!r}"
            )
        self._reconnect_policy: BackoffPolicy | None = reconnect
        if keepalive is not None and keepalive <= 0:
            raise ConfigurationError(
                f"connect keepalive must be positive, got {keepalive}"
            )
        if keepalive is None and reconnect is not None:
            keepalive = _DEFAULT_KEEPALIVE
        self._keepalive = keepalive
        self._rng = random.Random()
        self._state = "connected"
        self._resume_token: str | None = None
        self._publish_buffer: deque[tuple] = deque()
        self._resend_tail: deque[tuple] = deque(maxlen=_RESEND_TAIL)
        self._reader: threading.Thread | None = None
        self._housekeeper: threading.Thread | None = None

        self._host, port = parse_garnet_url(url)
        try:
            self._wire = wire = _SocketWire(self._host, port, timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot reach the broker at {self._host}:{port}: {exc}"
            ) from exc
        self._tcp = wire.control
        self._udp_port = wire.udp_port
        self._last_ping = wire.clock()
        try:
            welcome = self._request(*self._handshake(name=name))
        except BaseException:
            # A refused HELLO leaves no session, so it keeps no socket.
            self._tcp.close()
            wire.close()
            raise
        self._ledger.publisher_id = int(welcome["publisher_id"])
        self._data_address = (self._host, int(welcome["data_port"]))
        self._resume_token = welcome.get("resume_token")
        self._start_threads()

    def _start_threads(self) -> None:
        self._reader = threading.Thread(
            target=self._read_datagrams,
            name=f"garnet-live-{self._name}",
            daemon=True,
        )
        self._reader.start()
        if self._reconnect_policy is not None or self._keepalive is not None:
            self._housekeeper = threading.Thread(
                target=self._housekeeping,
                name=f"garnet-live-{self._name}-housekeeping",
                daemon=True,
            )
            self._housekeeper.start()

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def publisher_id(self) -> int:
        return self._ledger.publisher_id

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def state(self) -> str:
        """``"connected"`` / ``"reconnecting"`` / ``"closed"``."""
        return self._state

    @property
    def resume_token(self) -> str | None:
        """The broker-issued resume token (None when resume is off)."""
        return self._resume_token

    @property
    def deliveries(self) -> int:
        return self.stats.deliveries

    @property
    def published(self) -> int:
        return self.stats.published

    @property
    def subscription_ids(self) -> tuple[int, ...]:
        return tuple(self._ledger.wanted)

    def _require_open(self) -> None:
        if self._closed:
            raise TransportError(f"session {self._name!r} is closed")

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _request(self, frame_type: int, body: dict) -> dict:
        """Send one control frame and block for its response; what this
        session published before it leaves first."""
        self._require_open()
        if self._state == "reconnecting":
            raise TransportError(
                f"session {self._name!r} is reconnecting; retry shortly"
            )
        self._flush_queued()
        try:
            with self._lock:
                return self._exchange(
                    self._tcp, self._assembler, frame_type, body
                )
        except OSError as exc:
            self._connection_lost()
            reason = (
                f"timed out after {self._timeout}s"
                if isinstance(exc, socket.timeout)
                else f"failed: {exc}"
            )
            raise TransportError(
                f"{CONTROL_FRAME_NAMES[frame_type]} request {reason}"
            ) from exc

    def _handshake(self, **identity: Any) -> tuple[int, dict]:
        """``(frame type, body)`` of the frame that opens a connection.

        ``name=`` introduces the session (HELLO); ``token=`` and
        ``cursors=`` reclaim it (RESUME). The rest is what every
        connection announces anew.
        """
        body = {
            **identity,
            "udp_port": self._udp_port,
            # §7 batch datagrams are always understood.
            "batch_datagrams": True,
        }
        if self._keepalive is not None:
            body["keepalive"] = self._keepalive
        return (RESUME if "token" in identity else HELLO), body

    def _exchange(
        self,
        sock: socket.socket,
        assembler: ControlFrameAssembler,
        frame_type: int,
        body: dict,
    ) -> dict:
        """One request/response on an explicit socket (no state checks)."""
        sock.sendall(encode_control_frame(frame_type, body))
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("broker closed the control channel")
            frames = assembler.feed(chunk)
            if frames:
                break
        if len(frames) != 1:
            raise TransportError(
                f"expected one response, got {len(frames)} frames"
            )
        response_type, response = frames[0]
        if response_type != (frame_type | RESPONSE_FLAG):
            raise TransportError(
                f"response type 0x{response_type:02x} does not answer "
                f"request 0x{frame_type:02x}"
            )
        if not response.get("ok"):
            raise TransportError(
                response.get("error", "broker refused the request")
            )
        return response

    def subscribe(
        self,
        *,
        stream_id: StreamId | None = None,
        sensor_id: int | None = None,
        stream_index: int | None = None,
        kind: str | None = None,
        derived: bool | None = None,
        replay: str = "none",
    ) -> int:
        """Install a subscription; ``replay`` mirrors the simulated
        session's vocabulary (``'none' | 'orphans' | 'history'``) — with
        ``'history'`` the broker replays the stream store's retained
        records as ordinary data-plane datagrams before live delivery
        continues."""
        body = {
            "stream_id": list(stream_id) if stream_id is not None else None,
            "sensor_id": sensor_id,
            "stream_index": stream_index,
            "kind": kind,
            "derived": derived,
            "replay": replay,
        }
        response = self._request(SUBSCRIBE, body)
        return self._ledger.add(body, int(response["subscription_id"]))

    def query(
        self,
        stream_id: StreamId,
        start: float | None = None,
        end: float | None = None,
        limit: int | None = None,
    ) -> list[StreamArrival]:
        """Read one stream's retained history from the broker's store.

        Mirrors :meth:`GarnetSession.query`; records come back over the
        control plane (hex-encoded codec frames) and are decoded into
        :class:`StreamArrival` values. A response the broker had to cut
        short (control frames are bounded) raises ``TransportError`` —
        page with ``start``/``limit`` instead.
        """
        response = self._request(
            QUERY,
            {
                "stream_id": list(stream_id),
                "start": start,
                "end": end,
                "limit": limit,
            },
        )
        if response.get("truncated"):
            raise TransportError(
                "query response truncated by the control-frame cap; "
                "narrow the range or pass a limit"
            )
        arrivals = []
        for entry in response["records"]:
            message = self._codec.decode(bytes.fromhex(entry["frame"]))
            arrivals.append(
                StreamArrival(
                    message=message,
                    received_at=float(entry["received_at"]),
                    receiver_id=int(entry["receiver_id"]),
                )
            )
        return arrivals

    def unsubscribe(self, subscription_id: int) -> None:
        """Remove a subscription by the id :meth:`subscribe` returned."""
        if subscription_id not in self._ledger.wanted:
            raise TransportError(f"unknown subscription {subscription_id}")
        registered = self._ledger.registered(subscription_id)
        self._request(UNSUBSCRIBE, {"subscription_id": registered})
        self._ledger.remove(subscription_id)

    def discover(
        self,
        kind: str | None = None,
        sensor_id: int | None = None,
        derived: bool | None = None,
    ) -> list[dict]:
        response = self._request(
            DISCOVER,
            {"kind": kind, "sensor_id": sensor_id, "derived": derived},
        )
        return response["streams"]

    def ping(self) -> float:
        """Round-trip the control plane; returns the broker's sim time."""
        return float(self._request(PING, {})["time"])

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def on_data(self, callback: DataCallback) -> None:
        """Call ``callback`` with each new arrival. Callbacks never run
        concurrently: one must not block on this session's deliveries."""
        if not callable(callback):
            raise TransportError(
                f"data callback must be callable: {callback!r}"
            )
        self._callbacks.append(callback)

    def on_state(self, callback: StateCallback) -> None:
        """Observe ``"connected"`` / ``"reconnecting"`` / ``"closed"``
        transitions. Callbacks run on internal threads and are isolated:
        one raising is counted under ``callback_errors``, not fatal."""
        if not callable(callback):
            raise TransportError(
                f"state callback must be callable: {callback!r}"
            )
        self._state_callbacks.append(callback)

    def publish(
        self,
        stream_index: int,
        payload: bytes,
        kind: str = "",
        fused: bool = False,
        encrypted: bool = False,
        extensions: tuple[tuple[int, bytes], ...] = (),
    ) -> StreamId:
        """Publish one codec frame on this session's derived stream; it
        leaves with the rest of its burst (see *Publish batching*).

        While the session is reconnecting, publishes land in a bounded
        buffer (sequence numbers pre-assigned, so ordering and dedupe
        survive) and are flushed when the broker is back; buffer
        overflow drops the oldest entry and counts ``buffer_overflows``.
        """
        self._require_open()
        sequence = self._publish_sequences.get(stream_index, 0)
        # Refused here, nothing spent: no flush could send it either.
        stream_id, frame = self._datagram(
            stream_index, sequence, payload, fused, encrypted, extensions
        )
        sent = False
        if self._state != "reconnecting":
            try:
                self._send_publish(stream_index, kind, encrypted, frame)
                sent = True
            except TransportError:
                if self._state != "reconnecting":
                    raise  # genuine refusal, not a mid-publish outage
        # Spent only now: a refused publish leaves subscribers no gap.
        self._publish_sequences[stream_index] = (sequence + 1) % (1 << 16)
        if sent and self._reconnect_policy is None:
            return stream_id
        # Kept for a resend or a flush: ``_datagram``'s arguments, then kind.
        entry = (stream_index, sequence, payload, fused, encrypted,
                 extensions, kind)
        if sent:
            self._resend_tail.append(entry)
        else:
            self._publish_buffer.append(entry)
            self.stats.buffered_publishes += 1
            self._trim_publish_buffer()
        return stream_id

    def _datagram(
        self, stream_index: int, sequence: int, payload: bytes,
        fused: bool, encrypted: bool, extensions: tuple,
    ) -> tuple[StreamId, bytes]:
        """``(stream id, §2 frame)`` of one publish under this session's
        current publisher id: the common shape framed from the cached
        stream word, any other by the codec."""
        streams = self._streams
        stream = streams.get(stream_index)
        # (True hashes as 1, so only an int may take a cached stream.)
        if stream is None or stream_index.__class__ is not int:
            stream_id = StreamId(self._ledger.publisher_id, stream_index)
            # pack() range-checks: a bad index raises and is not cached.
            stream = streams[stream_index] = (stream_id, stream_id.pack())
        if not (fused or encrypted or extensions) and (
            len(payload) <= MAX_UDP_PAYLOAD
        ):
            frame = common_frame(0, stream[1], sequence, payload)
        else:  # Positional: a keyword call costs ~0.2 µs.
            frame = self._codec.encode(DataMessage(
                stream[0], sequence, payload, fused, encrypted, None, None,
                extensions,
            ))
        if len(frame) > MAX_UDP_PAYLOAD:
            raise TransportError(
                f"a {len(frame)}-byte message does not fit one UDP "
                f"datagram ({MAX_UDP_PAYLOAD} bytes)"
            )
        return stream[0], frame

    def _send_publish(
        self, stream_index: int, kind: str, encrypted: bool, frame: bytes
    ) -> None:
        if kind and stream_index not in self._ledger.advertised:
            self._request(
                ADVERTISE, _advertise_body(stream_index, kind, encrypted)
            )
            self._ledger.advertised[stream_index] = (kind, encrypted)
        self._queue_frame(frame)
        self._published.inc()

    def _queue_frame(self, frame: bytes) -> None:
        """The data plane's one send path: publishes, tail resends and
        outage flushes queue here. A full batch leaves inline; otherwise
        the queue's first frame wakes the flusher."""
        with self._send_lock:
            entry = BATCH_FRAME_PREFIX + len(frame)
            size = self._queued_size + entry
            if size > MAX_BATCH_DATAGRAM and self._queued:
                self._send_queued()
                size = BATCH_HEADER_SIZE + entry
            self._queued.append(frame)
            self._queued_size = size
            if self._flush_due:
                return
            self._flush_due = True
        self._wire.soon(self._woken_flush)

    def _flush_queued(self, woken: bool = False) -> None:
        """Send every queued frame now: the flusher's call (``woken``),
        and the inline flush before a control request or ``close()``."""
        with self._send_lock:
            if woken:
                self._flush_due = False
            if self._queued:
                self._send_queued()

    def _send_queued(self) -> None:
        """Send the queue as one datagram; the caller holds
        ``_send_lock``. A send the OS refuses is lost like any datagram
        the network drops, and counted."""
        frames, self._queued = self._queued, []
        self._queued_size = BATCH_HEADER_SIZE
        # One datagram: the queue never outgrows a batch (_queue_frame).
        [datagram] = encode_batch_datagrams(frames)
        if len(frames) > 1:
            self._batches_out.inc()
            self._batched_frames_out.inc(len(frames))
        try:
            self._wire.sendto(datagram, self._data_address)
        except OSError:
            self._send_errors.inc()

    def _trim_publish_buffer(self) -> None:
        """Hold the outage buffer to its bound by evicting the oldest."""
        while len(self._publish_buffer) > _PUBLISH_BUFFER:
            self._publish_buffer.popleft()
            self.stats.buffer_overflows += 1

    def _read_datagrams(self) -> None:
        while (data := self._wire.receive()) is not None:
            self._handle_datagram(data)

    def _handle_datagram(self, data: bytes) -> None:
        try:
            frames = datagram_frames(data)
        except TransportError:
            self._bad.inc()  # a malformed batch: one bad datagram
            return
        if len(frames) > 1:  # a §7 batch: many frames, one unit
            self._batches.inc()
            self._batched_frames.inc(len(frames))
        self._deliver(frames)

    def _deliver(self, frames: Sequence[bytes]) -> None:
        """Decode ``frames`` (one datagram's, or one NACK answer's) and
        hand the new ones to the callbacks as one unit: one lock across
        tracking, counters and callbacks, one clock read, one callback
        snapshot."""
        decode = self._codec.decode
        messages = []
        for frame in frames:
            try:
                messages.append(decode(frame))
            except GarnetError:
                pass
        with self._delivery_lock:
            self._bad.inc(len(frames) - len(messages))
            track = self._track_delivery
            fresh = [message for message in messages if track(message)]
            self._duplicates.inc(len(messages) - len(fresh))
            self._deliveries.inc(len(fresh))
            received_at, callbacks = time.time(), tuple(self._callbacks)
            errors = 0
            for message in fresh:
                arrival = StreamArrival(message, received_at, -1)
                for callback in callbacks:
                    try:
                        callback(arrival)
                    except Exception:
                        # One consumer's bug must not kill the reader
                        # thread (or starve the other callbacks).
                        errors += 1
            self._callback_errors.inc(errors)

    def _track_delivery(self, message: DataMessage) -> bool:
        """Dedupe + gap bookkeeping; False means drop (duplicate)."""
        stream_id = message.stream_id
        tracker = self._trackers.get(stream_id)
        if tracker is None:
            tracker = self._trackers[stream_id] = _StreamTracker()
        sequence = message.sequence
        window = tracker.window
        if tracker.missing.pop(sequence, None) is not None:
            # Never delivered, by the ledger's definition: a repair is
            # fresh even where the window would call it stale.
            window.add(sequence)
            self.stats.gaps_repaired += 1
            return True
        newest = window.newest
        if not window.add(sequence):
            return False
        if newest is None:
            return True
        jump = (sequence - newest) % (1 << 16)
        if 1 < jump < _MAX_GAP_RUN:
            now = self._wire.clock()
            missing = tracker.missing
            known = len(missing)
            for offset in range(1, jump):
                missing.setdefault((newest + offset) % (1 << 16), now)
            self.stats.gaps_detected += len(missing) - known
        return True

    # ------------------------------------------------------------------
    # Housekeeping: keepalive, gap repair, reconnect
    # ------------------------------------------------------------------
    def _housekeeping(self) -> None:
        while not self._wire.wait(_HOUSEKEEPING_TICK):
            try:
                state = self._state
                if state == "connected":
                    self._keepalive_tick()
                    if self._state == "connected":
                        self._repair_tick()
                elif state == "reconnecting":
                    self._run_reconnect()
                else:
                    return
            except Exception:  # pragma: no cover - belt and braces
                if self._closed:
                    return

    def _keepalive_tick(self) -> None:
        if self._keepalive is None:
            return
        now = self._wire.clock()
        if now - self._last_ping < self._keepalive:
            return
        self._last_ping = now
        try:
            self._request(PING, {})
        except TransportError:
            self.stats.keepalive_failures += 1
            # _request already flipped the state when the socket died;
            # a refusal with a healthy socket needs no reconnect.

    def _repair_tick(self) -> None:
        """NACK sufficiently-aged gaps and inject the repaired records."""
        now = self._wire.clock()
        for key, tracker in list(self._trackers.items()):
            with self._delivery_lock:
                due = sorted(
                    sequence
                    for sequence, seen_at in tracker.missing.items()
                    if now - seen_at >= _REPAIR_DELAY
                )[:_NACK_BATCH]
            if not due:
                continue
            try:
                response = self._request(
                    NACK, {"stream_id": list(key), "sequences": due}
                )
            except TransportError:
                return  # broker unreachable: try again next tick
            self._deliver(
                [bytes.fromhex(frame) for frame in response.get("records", ())]
            )
            # What the broker no longer retains — everything, when it
            # runs without a store — is given up on, not asked for again.
            unrepairable = response.get("missing", ())
            with self._delivery_lock:
                for sequence in unrepairable:
                    if tracker.missing.pop(int(sequence), None) is not None:
                        self.stats.gaps_unrepairable += 1

    def _connection_lost(self) -> None:
        """A control request hit a dead socket: start reconnecting."""
        if self._reconnect_policy is None or self._closed:
            return
        with self._state_lock:
            if self._state != "connected":
                return
            self._state = "reconnecting"
        with contextlib.suppress(OSError):
            self._tcp.close()  # broker sees EOF and parks the session
        self._notify_state("reconnecting")

    def _notify_state(self, state: str) -> None:
        for callback in list(self._state_callbacks):
            try:
                callback(state)
            except Exception:
                self._callback_errors.inc()

    def _run_reconnect(self) -> None:
        policy = self._reconnect_policy
        for attempt in range(1, policy.max_attempts + 1):
            if self._closed:
                return
            if self._wire.wait(policy.delay(attempt, self._rng)):
                return
            if self._dial_once():
                self.stats.reconnects += 1
                self._notify_state("connected")
                return
        # Exhausted the schedule: the session is dead for good. Being
        # "reconnecting", close() tries no CLOSE frame on the way out.
        self.close()

    def _dial_once(self) -> bool:
        """One reconnect attempt: RESUME first, fresh HELLO fallback."""
        try:
            sock = self._wire.dial()
        except OSError:
            return False
        assembler = ControlFrameAssembler()
        try:
            if self._resume_token is not None:
                with self._delivery_lock:
                    cursors = {
                        f"{key[0]}:{key[1]}": tracker.window.newest
                        for key, tracker in self._trackers.items()
                        if tracker.window.newest is not None
                    }
                try:
                    response = self._exchange(
                        sock,
                        assembler,
                        *self._handshake(
                            token=self._resume_token, cursors=cursors
                        ),
                    )
                except TransportError:
                    pass  # token refused: same socket, fresh HELLO
                else:
                    return self._adopt(sock, assembler, response, resumed=True)
            response = self._exchange(
                sock, assembler, *self._handshake(name=self._name)
            )
            # Reinstall the ledger before going live: subscriptions
            # first so no delivery window is missed, then the
            # advertisement metadata the old session carried.
            exchange = functools.partial(self._exchange, sock, assembler)
            self._ledger.reinstall(
                lambda body: int(exchange(SUBSCRIBE, body)["subscription_id"]),
                lambda *advert: exchange(ADVERTISE, _advertise_body(*advert)),
            )
            self.stats.rehellos += 1
            return self._adopt(sock, assembler, response, resumed=False)
        except (OSError, TransportError, ValueError):
            with contextlib.suppress(OSError):
                sock.close()
            return False

    def _adopt(
        self,
        sock: socket.socket,
        assembler: ControlFrameAssembler,
        response: dict,
        resumed: bool,
    ) -> bool:
        """Install a freshly-handshaken control socket as the session's
        (the one it replaces was closed when its loss was noticed). False,
        the socket closed, when ``close()`` ran while it was being dialed."""
        with self._state_lock:
            if self._closed:
                sock.close()
                return False
            with self._lock:
                self._tcp = sock
                self._assembler = assembler
                self._data_address = (self._host, int(response["data_port"]))
                self._resume_token = response.get("resume_token")
            self._ledger.publisher_id = int(response["publisher_id"])
            self._streams = {}  # a re-HELLO may have named a new publisher id
            if resumed:
                self.stats.resumes += 1
                self.stats.replayed += int(response.get("replayed", 0))
            self._state = "connected"
        self._last_ping = self._wire.clock()
        self._flush_outage_buffers(resend_tail=resumed)
        return True

    def _flush_outage_buffers(self, resend_tail: bool) -> None:
        if resend_tail:
            # The broker may have died before our freshest publishes
            # reached its store: resend the tail (at-least-once; the
            # store tap and subscriber windows dedupe the overlap).
            for entry in list(self._resend_tail):
                self._queue_frame(self._datagram(*entry[:6])[1])
                self.stats.tail_resends += 1
        buffer = self._publish_buffer
        while buffer:
            entry = buffer.popleft()
            stream_index, _, _, _, encrypted, _, kind = entry
            try:
                frame = self._datagram(*entry[:6])[1]
                self._send_publish(stream_index, kind, encrypted, frame)
            except TransportError:
                # The connection died again: this entry and the rest wait,
                # in order, for the next re-attach.
                buffer.appendleft(entry)
                self._trim_publish_buffer()
                return
            self._resend_tail.append(entry)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the session, sockets and threads: the only way out,
        whoever asks (the caller, or the reconnect loop giving up).
        Idempotent."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            was_connected = self._state == "connected"
            self._state = "closed"
        self._flush_queued()
        if was_connected:
            try:
                with self._lock:
                    self._exchange(self._tcp, self._assembler, CLOSE, {})
            except (TransportError, OSError):
                pass  # broker already gone: local teardown still applies
        try:
            self._tcp.close()
        finally:
            self._wire.close()
        for thread in (self._reader, self._housekeeper):
            if thread is not None and thread is not threading.current_thread():
                thread.join(timeout=2.0)
        self._notify_state("closed")

    def __enter__(self) -> "LiveSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def connect(
    url: str,
    name: str | None = None,
    *,
    timeout: float = 10.0,
    reconnect: BackoffPolicy | bool | None = None,
    keepalive: float | None = None,
) -> LiveSession:
    """Open a :class:`LiveSession` against a running broker: the live door.

    Arguments are checked before anything is dialed: a bad ``timeout``,
    ``keepalive`` or ``reconnect`` is a
    :class:`~repro.errors.ConfigurationError`, a missing ``name`` a
    :class:`~repro.errors.RegistrationError`. Simulated sessions
    (tokens, permissions, heartbeats, broker homing) come from
    :meth:`Garnet.connect <repro.core.middleware.Garnet.connect>`.
    """
    return LiveSession(
        url,
        name,
        timeout=timeout,
        reconnect=reconnect,
        keepalive=keepalive,
    )


__all__ = [
    "DEFAULT_RECONNECT_POLICY",
    "LiveSession",
    "LiveSessionStats",
    "connect",
]
