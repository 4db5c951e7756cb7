"""The Actuation Service: reliable-ish delivery of control messages.

Section 4.2: after Resource Manager approval, "the Actuation Service next
processes the request with timestamps, and checksums, before forwarding
to the message replicator."

Because the forward wireless hop is unreliable, the service also owns the
acknowledgement loop: every issued request is tracked until a matching
acknowledgement (the ``ACK`` field of Section 4.3, extracted by the
Filtering Service) arrives, with bounded retransmission on timeout. On
confirmation the Resource Manager's believed configuration is updated —
this is exactly why the overview is "approximate" (Section 6): between
issue and acknowledgement the middleware's belief and the sensor's state
legitimately diverge.

Retransmission timing follows a configurable
:class:`~repro.util.backoff.BackoffPolicy`: the first wait is
``ack_timeout``, subsequent waits grow by the policy's multiplier (with
optional jitter drawn from a simulation-forked RNG), so a congested or
partitioned return path sees progressively gentler retry pressure. The
default policy (multiplier 1, no jitter) reproduces the original fixed
``ack_timeout`` behaviour exactly.

Request ids are 16-bit and ephemeral, wrapping after 64K requests — the
identifier the paper calls "loosely comparable to a RETRI" (Section 7).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any

from repro.core.control import (
    ControlCodec,
    StreamUpdateCommand,
    StreamUpdateRequest,
    encode_mode_params,
    encode_precision_params,
    encode_rate_params,
)
from repro.core.envelopes import AckNotice, TransmitOrder
from repro.core.resource import ResourceManager
from repro.core.streamid import StreamId
from repro.errors import ActuationError
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import RegistryBackedStats
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.kernel import EventHandle
from repro.util.backoff import BackoffPolicy
from repro.util.ids import WrappingCounter

ACK_INBOX = "garnet.actuation.acks"
REPLICATOR_INBOX = "garnet.replicator"

CompletionCallback = Callable[["PendingRequest", bool], None]


def encode_command_params(command: StreamUpdateCommand, value: Any) -> bytes:
    """Parameter bytes for ``command`` carrying ``value``."""
    if command is StreamUpdateCommand.SET_RATE:
        return encode_rate_params(float(value))
    if command is StreamUpdateCommand.SET_MODE:
        return encode_mode_params(int(value))
    if command is StreamUpdateCommand.SET_PRECISION:
        return encode_precision_params(int(value))
    if command in (
        StreamUpdateCommand.ENABLE_STREAM,
        StreamUpdateCommand.DISABLE_STREAM,
        StreamUpdateCommand.PING,
    ):
        return b""
    raise ActuationError(f"no parameter codec for {command!r}")


@dataclass(slots=True)
class PendingRequest:
    """An issued request awaiting acknowledgement."""

    request: StreamUpdateRequest
    parameter: str | None
    value: Any
    issued_at: float
    attempts: int = 1
    timer: EventHandle | None = None
    on_complete: CompletionCallback | None = None


class ActuationStats(RegistryBackedStats):
    PREFIX = "actuation"

    issued: int = 0
    retransmissions: int = 0
    acknowledged: int = 0
    failed: int = 0
    duplicate_acks: int = 0


class ActuationService:
    """Stamps, tracks and (re)transmits approved stream update requests."""

    def __init__(
        self,
        network: FixedNetwork,
        resource_manager: ResourceManager | None = None,
        ack_timeout: float = 2.0,
        max_attempts: int = 3,
        metrics: MetricsRegistry | None = None,
        backoff: BackoffPolicy | None = None,
    ) -> None:
        if ack_timeout <= 0:
            raise ActuationError("ack_timeout must be positive")
        if max_attempts < 1:
            raise ActuationError("max_attempts must be at least 1")
        self._network = network
        self._resource_manager = resource_manager
        self._ack_timeout = ack_timeout
        # ``backoff`` overrides the legacy (ack_timeout, max_attempts)
        # pair; the default multiplier-1 policy is exactly the historical
        # fixed-interval retransmission.
        self._backoff = backoff or BackoffPolicy(
            base=ack_timeout,
            multiplier=1.0,
            jitter=0.0,
            max_attempts=max_attempts,
        )
        self._max_attempts = self._backoff.max_attempts
        # Forked only when jitter is in play, preserving the historical
        # RNG stream layout for deterministic legacy deployments.
        self._backoff_rng: random.Random | None = (
            network.sim.fork_rng() if self._backoff.jitter > 0 else None
        )
        self._codec = ControlCodec()
        self._request_ids = WrappingCounter(16)
        self._pending: dict[int, PendingRequest] = {}
        self.stats = ActuationStats(metrics)
        self.ack_latency = self.stats.registry.histogram(
            "actuation.ack_seconds",
            help="issue-to-acknowledgement latency in virtual seconds",
        )
        network.register_inbox(ACK_INBOX, self.on_ack)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def has_pending_for(self, target: StreamId) -> bool:
        """True while any request toward ``target`` awaits its ack.

        Rate controllers (adaptive tuning, QoS degradation) use this to
        avoid stacking a second in-flight actuation on a stream whose
        previous update has not been confirmed yet.
        """
        return any(
            pending.request.target == target
            for pending in self._pending.values()
        )

    @property
    def backoff(self) -> BackoffPolicy:
        """The retransmission schedule in force."""
        return self._backoff

    def backoff_schedule(self) -> tuple[float, ...]:
        """Nominal wait after each attempt, in order (jitter excluded)."""
        return self._backoff.schedule()

    # ------------------------------------------------------------------
    def issue(
        self,
        target: StreamId,
        command: StreamUpdateCommand,
        value: Any = None,
        parameter: str | None = None,
        on_complete: CompletionCallback | None = None,
    ) -> int:
        """Send one approved request toward its sensor; returns request id.

        The caller is expected to have obtained Resource Manager approval
        already (the :class:`~repro.core.middleware.Garnet` facade wires
        that sequence); this service adds the timestamp, checksum and
        ephemeral request id, and owns retries.
        """
        now = self._network.sim.now
        request_id = self._allocate_request_id()
        request = StreamUpdateRequest(
            request_id=request_id,
            target=target,
            command=command,
            params=encode_command_params(command, value),
            timestamp_us=int(now * 1_000_000),
        )
        pending = PendingRequest(
            request=request,
            parameter=parameter,
            value=value,
            issued_at=now,
            on_complete=on_complete,
        )
        self._pending[request_id] = pending
        self.stats.issued += 1
        self._transmit(pending)
        return request_id

    def _allocate_request_id(self) -> int:
        # Skip ids still pending; with 64K ids and bounded timeouts this
        # terminates after a handful of probes in any sane deployment.
        for _ in range(self._request_ids.modulus):
            candidate = self._request_ids.next()
            if candidate not in self._pending:
                return candidate
        raise ActuationError("all 65536 request ids are pending")

    def _transmit(self, pending: PendingRequest) -> None:
        # Each attempt carries a fresh timestamp: honest stamping, and it
        # makes each retry a distinct frame, which a multi-hop relay that
        # drops control frames it already forwarded (Section 8) passes on.
        pending.request = replace(
            pending.request,
            timestamp_us=int(self._network.sim.now * 1_000_000),
        )
        frame = self._codec.encode(pending.request)
        self._network.send(
            REPLICATOR_INBOX,
            TransmitOrder(
                frame=frame,
                target_sensor_id=pending.request.target.sensor_id,
                request_id=pending.request.request_id,
            ),
        )
        pending.timer = self._network.sim.schedule(
            self._backoff.delay(pending.attempts, self._backoff_rng),
            self._on_timeout,
            pending.request.request_id,
        )

    def _on_timeout(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        if pending.attempts >= self._max_attempts:
            del self._pending[request_id]
            self.stats.failed += 1
            if pending.on_complete is not None:
                pending.on_complete(pending, False)
            return
        pending.attempts += 1
        self.stats.retransmissions += 1
        self._transmit(pending)

    # ------------------------------------------------------------------
    def on_ack(self, notice: AckNotice) -> None:
        """Handle an acknowledgement extracted by the Filtering Service."""
        pending = self._pending.pop(notice.request_id, None)
        if pending is None:
            self.stats.duplicate_acks += 1
            return
        if pending.timer is not None:
            pending.timer.cancel()
        self.stats.acknowledged += 1
        latency = max(0.0, notice.observed_at - pending.issued_at)
        self.ack_latency.observe(latency)
        if (
            self._resource_manager is not None
            and pending.parameter is not None
        ):
            self._resource_manager.confirm_applied(
                pending.request.target, pending.parameter, pending.value
            )
        if pending.on_complete is not None:
            pending.on_complete(pending, True)
