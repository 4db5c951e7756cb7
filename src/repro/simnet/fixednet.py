"""The fixed network interconnecting Garnet's middleware services.

Figure 1 distinguishes two interaction styles on the fixed side:
*event-based message passing* (the data path: receivers → filtering →
dispatching → consumers) and *remote procedure call* (the control path:
consumers → resource manager → actuation service). :class:`FixedNetwork`
provides both over the simulation kernel:

- :meth:`send` delivers a one-way message to a named endpoint after a
  configurable latency (asynchronous message exchange, Section 3);
- :meth:`call` invokes a registered :class:`RpcEndpoint` method and
  delivers the result to a callback after a round trip.

Section 3 presumes replication for fault-tolerance on the fixed side; the
reproduction makes that assumption explicit and *testable*. The network
can be partitioned and healed (:meth:`partition` / :meth:`heal`), its
latency inflated (:meth:`set_latency_factor`), and — when a
:class:`~repro.util.backoff.BackoffPolicy` is installed — a delivery that
finds its destination unreachable is parked on a retry queue with
jittered exponential backoff instead of silently vanishing. Deliveries
that exhaust their retries (or fail with no retry policy configured) go
through the *dead-letter hook* so callers can react, and are counted as
``fixednet.dead_lettered``.

With a breaker policy installed (:meth:`set_breaker_policy`,
``repro.qos``), each delivery destination additionally sits behind a
circuit breaker: repeated dead-letters trip it open, further sends (and
queued retries) are dropped immediately as ``"circuit open"``, and after
the reset timeout a single half-open probe decides whether to close it.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from typing import Any

from repro.errors import ConfigurationError, RegistrationError
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import RegistryBackedStats
from repro.obs.tracing import Span, Tracer
from repro.simnet.kernel import Simulator
from repro.util.backoff import BackoffPolicy

#: ``hook(destination, message, reason)`` invoked for every dead letter.
DeadLetterHook = Callable[[str, Any, str], None]


class FixedNetStats(RegistryBackedStats):
    """Counters for fixed-network traffic, used in overhead experiments."""

    PREFIX = "fixednet"

    messages: int = 0
    rpc_calls: int = 0
    dropped: int = 0
    """Messages whose destination was unreachable at (final) delivery time."""
    dead_lettered: int = 0
    """Messages handed to the dead-letter hook after delivery gave up."""
    dead_letter_errors: int = 0
    """Dead-letter hook invocations that raised (and were isolated)."""


class RpcEndpoint:
    """Base class for services reachable by RPC.

    Subclasses expose methods named ``rpc_<operation>``; :meth:`FixedNetwork.call`
    dispatches to them by operation name. Keeping the prefix explicit means
    a service's internal methods are never remotely callable by accident.
    """

    def rpc_dispatch(self, operation: str, *args: Any, **kwargs: Any) -> Any:
        handler = getattr(self, f"rpc_{operation}", None)
        if handler is None or not callable(handler):
            raise RegistrationError(
                f"{type(self).__name__} has no RPC operation {operation!r}"
            )
        return handler(*args, **kwargs)


class FixedNetwork:
    """Reliable asynchronous bus + RPC fabric among middleware services.

    Inboxes and sends ride the discrete-event kernel, with partitions,
    retry backoff and circuit breakers layered on the delivery path.
    """

    def __init__(
        self,
        sim: Simulator,
        message_latency: float = 0.0005,
        rpc_latency: float = 0.001,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        retry_policy: BackoffPolicy | None = None,
    ) -> None:
        if message_latency < 0 or rpc_latency < 0:
            raise ConfigurationError("latencies must be non-negative")
        self._sim = sim
        self._message_latency = message_latency
        self._rpc_latency = rpc_latency
        self._inboxes: dict[str, Callable[[Any], None]] = {}
        self._services: dict[str, RpcEndpoint] = {}
        self.stats = FixedNetStats(metrics)
        # send() runs once per routed message; increment the backing
        # counter directly instead of paying the stats property pair.
        # (FixedNetStats is never re-bound, so the cache cannot go stale.)
        self._messages_total = self.stats.counter("messages")
        self._tracer = tracer
        self._retry_policy = retry_policy
        # Forked only when retries can jitter, so deployments without a
        # retry policy keep their historical RNG stream layout.
        self._retry_rng: random.Random | None = (
            sim.fork_rng()
            if retry_policy is not None and retry_policy.jitter > 0
            else None
        )
        self._dead_letter: DeadLetterHook | None = None
        self._partitioned: set[str] = set()
        self._latency_factor = 1.0
        #: destination -> outbound hook; installed by the multiprocess
        #: cluster bridge so sends to inboxes owned by another process
        #: are shipped over a pipe instead of delivered locally. None
        #: (the default) keeps send() on its historical fast path.
        self._remote_routes: dict[str, Callable[[float, str, Any], None]] | None = None
        self._breaker_policy: Any | None = None
        self._breakers: dict[str, Any] | None = None
        registry = self.stats.registry
        self._retries = registry.counter(
            "resilience.fixednet_retries",
            help="redelivery attempts scheduled for unreachable endpoints",
        )
        self._redelivered = registry.counter(
            "resilience.fixednet_redelivered",
            help="messages delivered successfully after at least one retry",
        )

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def tracer(self) -> Tracer | None:
        return self._tracer

    # ------------------------------------------------------------------
    # Fault & resilience controls
    # ------------------------------------------------------------------
    @property
    def retry_policy(self) -> BackoffPolicy | None:
        return self._retry_policy

    def set_retry_policy(self, policy: BackoffPolicy | None) -> None:
        """Install (or remove) redelivery for unreachable endpoints."""
        self._retry_policy = policy
        if policy is not None and policy.jitter > 0 and self._retry_rng is None:
            self._retry_rng = self._sim.fork_rng()

    def set_dead_letter(self, hook: DeadLetterHook | None) -> None:
        """Observe messages the network finally gave up on.

        ``hook(destination, message, reason)`` fires once per abandoned
        message, after any configured retries are exhausted. Exceptions
        from the hook are isolated and counted as
        ``fixednet.dead_letter_errors`` — the hook is observability
        riding on the delivery path, and a broken observer must not
        abort the retry-queue drain that invoked it (the same isolation
        PR 1 gave ControlPath actuation observers).
        """
        if hook is not None and not callable(hook):
            raise ConfigurationError("dead-letter hook must be callable")
        self._dead_letter = hook

    def _dead_lettered(self, destination: str, message: Any, reason: str) -> None:
        self.stats.dropped += 1
        self.stats.dead_lettered += 1
        # Breakers guard message-path endpoints: short-circuit drops have
        # already been recorded, and RPC "service down" losses are the
        # crash-fault model's territory, not an endpoint health signal.
        if (
            self._breakers is not None
            and not reason.startswith("circuit")
            and reason != "service down"
        ):
            breaker = self._breaker_for(destination)
            if breaker.record_failure(self._sim.now):
                self._breaker_opened.inc()
        if self._dead_letter is not None:
            try:
                self._dead_letter(destination, message, reason)
            except Exception:
                self.stats.dead_letter_errors += 1

    # ------------------------------------------------------------------
    # Circuit breakers (repro.qos)
    # ------------------------------------------------------------------
    def set_breaker_policy(self, policy: Any | None) -> None:
        """Install per-endpoint circuit breakers on the delivery path.

        ``policy`` is a :class:`~repro.qos.breaker.BreakerPolicy` (any
        object with a ``build()`` factory works; the network stays
        decoupled from the qos package). With breakers installed, an
        endpoint that keeps dead-lettering trips open: deliveries —
        including queued retries re-entering the path — are dropped
        immediately with reason ``"circuit open"`` instead of burning a
        retry schedule each, until a half-open probe succeeds.
        """
        if policy is None:
            self._breaker_policy = None
            self._breakers = None
            return
        if not hasattr(policy, "build"):
            raise ConfigurationError(
                f"breaker policy must provide build(), got {policy!r}"
            )
        self._breaker_policy = policy
        self._breakers = {}
        registry = self.stats.registry
        self._breaker_opened = registry.counter(
            "qos.breaker_opened",
            help="circuit breakers tripped open by repeated dead-letters",
        )
        self._breaker_closed = registry.counter(
            "qos.breaker_closed",
            help="circuit breakers closed again after a successful probe",
        )
        self._breaker_probes = registry.counter(
            "qos.breaker_probes",
            help="half-open probe deliveries attempted",
        )
        self._breaker_short_circuits = registry.counter(
            "qos.breaker_short_circuits",
            help="deliveries refused outright by an open breaker",
        )

    def _breaker_for(self, destination: str) -> Any:
        breaker = self._breakers.get(destination)
        if breaker is None:
            breaker = self._breaker_policy.build()
            self._breakers[destination] = breaker
        return breaker

    def breaker_state(self, destination: str) -> str | None:
        """The breaker state for ``destination`` (None = no breakers)."""
        if self._breakers is None:
            return None
        breaker = self._breakers.get(destination)
        return breaker.state if breaker is not None else "closed"

    def partition(self, endpoints: Iterable[str]) -> None:
        """Sever the named endpoints from the bus until :meth:`heal`.

        Messages to a partitioned endpoint behave exactly like messages
        to a missing inbox: they retry (when a policy is installed) and
        eventually dead-letter. RPC services are unaffected — a partition
        models losing the links to consumer processes, not the middleware
        host itself (crash faults model that).
        """
        self._partitioned.update(endpoints)

    def heal(self, endpoints: Iterable[str] | None = None) -> None:
        """Restore partitioned endpoints (all of them when None)."""
        if endpoints is None:
            self._partitioned.clear()
        else:
            self._partitioned.difference_update(endpoints)

    def is_partitioned(self, name: str) -> bool:
        return name in self._partitioned

    @property
    def latency_factor(self) -> float:
        return self._latency_factor

    def set_latency_factor(self, factor: float) -> None:
        """Scale both message and RPC latency (latency-spike faults)."""
        if factor <= 0:
            raise ConfigurationError(
                f"latency factor must be positive, got {factor}"
            )
        self._latency_factor = factor

    # ------------------------------------------------------------------
    # Event-based message passing
    # ------------------------------------------------------------------
    def register_inbox(
        self, name: str, handler: Callable[[Any], None]
    ) -> None:
        """Attach a one-way message handler under a unique endpoint name."""
        if name in self._inboxes:
            raise RegistrationError(f"inbox {name!r} already registered")
        self._inboxes[name] = handler

    def unregister_inbox(self, name: str) -> None:
        self._inboxes.pop(name, None)

    def inbox_names(self) -> list[str]:
        """Every registered inbox endpoint name (multiprocess routing)."""
        return list(self._inboxes)

    def set_remote_route(
        self,
        destination: str,
        outbound: Callable[[float, str, Any], None],
    ) -> None:
        """Divert sends to ``destination`` through ``outbound``.

        Installed by the multiprocess cluster bridge
        (:mod:`repro.cluster.mp`): instead of scheduling a local
        delivery, ``send`` calls ``outbound(arrival_time, destination,
        message)`` so the process that owns the inbox can
        :meth:`inject` the delivery at exactly the arrival time this
        network would have used.
        """
        if self._remote_routes is None:
            self._remote_routes = {}
        self._remote_routes[destination] = outbound

    def clear_remote_routes(self) -> None:
        """Drop every remote route; sends become local again."""
        self._remote_routes = None

    def inject(self, arrival_time: float, destination: str, message: Any) -> None:
        """Schedule a delivery shipped from another process.

        ``arrival_time`` was computed by the *sending* process's network
        (send time plus bus latency); the multiprocess barrier protocol
        guarantees it is still in this process's future, so a
        :class:`SchedulingError` here means a lookahead violation, not a
        recoverable condition.
        """
        self._sim.schedule_at(
            arrival_time, self._deliver, destination, message, None
        )

    def extract_pending_for(
        self, destinations: "set[str] | frozenset[str]"
    ) -> list[tuple[float, str, Any]]:
        """Cancel queued deliveries bound for ``destinations``.

        Returns ``(arrival_time, destination, message)`` triples in
        schedule order. The multiprocess bridge uses this at activation
        time: deliveries scheduled while the deployment was being built
        (interest broadcasts, advertisements) predate the remote routes,
        so the parent sweeps its queue and ships them to the owning
        worker, which :meth:`inject`\\ s them at their original times.
        """
        deliver = self._deliver
        matched = []
        for handle in self._sim.iter_pending():
            if handle.callback != deliver:
                continue
            args = handle.args
            if args and args[0] in destinations:
                matched.append(handle)
        matched.sort(key=lambda handle: (handle.time, handle.seq))
        extracted = []
        for handle in matched:
            handle.cancel()
            extracted.append((handle.time, handle.args[0], handle.args[1]))
        return extracted

    def has_inbox(self, name: str) -> bool:
        return name in self._inboxes

    def send(self, destination: str, message: Any) -> None:
        """Deliver ``message`` to ``destination`` after the bus latency.

        The handler lookup happens at delivery time so a consumer that
        deregisters mid-flight simply drops the message, mirroring a
        process that exits with messages queued — unless a retry policy
        is installed, in which case the message is retried with backoff
        and dead-lettered only after the policy gives up.
        """
        routes = self._remote_routes
        if routes is not None:
            outbound = routes.get(destination)
            if outbound is not None:
                # Ship (arrival_time, destination, message) to the
                # owning process; it schedules the delivery locally at
                # exactly the time this send() would have.
                self._messages_total.inc()
                outbound(
                    self._sim.now
                    + self._message_latency * self._latency_factor,
                    destination,
                    message,
                )
                return
        self._messages_total.inc()
        span = (
            self._tracer.begin("fixednet.deliver", destination=destination)
            if self._tracer is not None
            else None
        )
        self._sim.schedule(
            self._message_latency * self._latency_factor,
            self._deliver,
            destination,
            message,
            span,
        )

    def _deliver(
        self,
        destination: str,
        message: Any,
        span: Span | None = None,
        attempt: int = 0,
    ) -> None:
        breaker = (
            self._breaker_for(destination)
            if self._breakers is not None
            else None
        )
        if breaker is not None and not breaker.allow(self._sim.now):
            # Open breaker: drop now — no retry schedule, no probe. A
            # queued retry re-entering the path lands here too, so an
            # endpoint that tripped mid-backoff stops being hammered.
            if span is not None and self._tracer is not None:
                self._tracer.finish(span, delivered=False)
            self._breaker_short_circuits.inc()
            self._dead_lettered(destination, message, "circuit open")
            return
        probing = breaker is not None and breaker.state == "half_open"
        if probing:
            self._breaker_probes.inc()
        handler = self._inboxes.get(destination)
        reachable = (
            handler is not None and destination not in self._partitioned
        )
        if not reachable:
            if span is not None and self._tracer is not None:
                self._tracer.finish(span, delivered=False)
            if probing:
                # A failed probe re-opens immediately; retrying it would
                # defeat the point of probing one message at a time.
                breaker.record_failure(self._sim.now)
                self._breaker_opened.inc()
                self._dead_lettered(destination, message, "circuit probe failed")
                return
            policy = self._retry_policy
            if policy is not None and attempt < policy.max_attempts:
                next_attempt = attempt + 1
                self._retries.inc()
                self._sim.schedule(
                    policy.delay(next_attempt, self._retry_rng),
                    self._deliver,
                    destination,
                    message,
                    None,
                    next_attempt,
                )
                return
            reason = (
                "partitioned"
                if destination in self._partitioned
                else "no inbox"
            )
            if policy is not None:
                reason += f" after {attempt} retries"
            self._dead_lettered(destination, message, reason)
            return
        if span is not None and self._tracer is not None:
            self._tracer.finish(span, delivered=True)
        if attempt > 0:
            self._redelivered.inc()
        if breaker is not None and breaker.record_success(self._sim.now):
            self._breaker_closed.inc()
        handler(message)

    # ------------------------------------------------------------------
    # Remote procedure call
    # ------------------------------------------------------------------
    def register_service(self, name: str, service: RpcEndpoint) -> None:
        if name in self._services:
            raise RegistrationError(f"service {name!r} already registered")
        self._services[name] = service

    def unregister_service(self, name: str) -> None:
        """Remove a service from the RPC fabric (crash faults use this)."""
        self._services.pop(name, None)

    def has_service(self, name: str) -> bool:
        return name in self._services

    def call(
        self,
        service_name: str,
        operation: str,
        *args: Any,
        on_result: Callable[[Any], None] | None = None,
        **kwargs: Any,
    ) -> None:
        """Invoke ``operation`` on a registered service asynchronously.

        The call executes after one latency; ``on_result`` (if given) fires
        after the return latency. Exceptions raised by the service
        propagate to the caller's result callback as the result value when
        it accepts them, otherwise they abort the event — tests rely on
        loud failures rather than silently swallowed errors.
        """
        if service_name not in self._services:
            raise RegistrationError(f"unknown service {service_name!r}")
        self.stats.rpc_calls += 1
        self._sim.schedule(
            self._rpc_latency * self._latency_factor,
            self._invoke,
            service_name,
            operation,
            args,
            kwargs,
            on_result,
        )

    def call_sync(
        self, service_name: str, operation: str, *args: Any, **kwargs: Any
    ) -> Any:
        """Invoke an operation immediately, bypassing simulated latency.

        Intended for tests and for intra-service queries where Figure 1
        shows a direct lookup (e.g. replicator → location service), where
        modelling the latency separately would double-count it.
        """
        service = self._services.get(service_name)
        if service is None:
            raise RegistrationError(f"unknown service {service_name!r}")
        self.stats.rpc_calls += 1
        return service.rpc_dispatch(operation, *args, **kwargs)

    def _invoke(
        self,
        service_name: str,
        operation: str,
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        on_result: Callable[[Any], None] | None,
    ) -> None:
        service = self._services.get(service_name)
        if service is None:
            # The service crashed between call and invoke; the in-flight
            # RPC is lost exactly like a real request hitting a dead host.
            self._dead_lettered(
                service_name, (operation, args, kwargs), "service down"
            )
            return
        result = service.rpc_dispatch(operation, *args, **kwargs)
        if on_result is not None:
            self._sim.schedule(
                self._rpc_latency * self._latency_factor, on_result, result
            )
