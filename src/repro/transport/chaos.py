"""A protocol-aware chaos proxy for the live transport.

:class:`ChaosProxy` sits between a :class:`~repro.transport.client.
LiveSession` and a :class:`~repro.transport.broker.LiveBroker` and
injects scripted faults into both planes:

- **TCP control plane** — each client connection is proxied to the
  upstream broker with control frames parsed in both directions, so the
  proxy can rewrite the UDP rendezvous: the client's announced
  ``udp_port`` (HELLO / RESUME requests) is replaced with a
  per-connection UDP relay port, and the broker's announced
  ``data_port`` (HELLO / RESUME responses) likewise — which drags the
  *data plane* through the proxy too, where datagrams can be dropped
  or blackholed.
- **UDP data plane** — one relay socket per control connection. The
  relay tells directions apart by source address: datagrams from the
  client's announced UDP port forward to the broker's data port,
  everything else is broker traffic bound for the client's socket.

Faults are a :class:`~repro.faults.plan.FaultPlan` pinned to
*wall-clock* seconds after :meth:`ChaosProxy.start`; a
:class:`~repro.faults.injector.FaultInjector` schedules it on the
proxy's event loop and keeps its window book. The proxy has three
levers (the table in :mod:`repro.faults.plan`) and refuses a plan with
any other kind before it binds a socket:

- :class:`~repro.faults.plan.DropBurst` — relayed datagrams dropped
  i.i.d. at ``extra_loss`` in both directions, drawn from the proxy's
  seeded RNG;
- :class:`~repro.faults.plan.BrokerCrash` — for the window, datagrams
  vanish in both directions, bytes on existing TCP connections vanish,
  and new TCP connections are refused: the peer looks frozen, not dead.
  At window open the ``on_broker_restart`` callback runs on a worker
  thread; harnesses use it to actually terminate and relaunch the
  broker process behind the proxy, on the same ports, before the window
  closes;
- :class:`~repro.faults.plan.ConnectionReset` — every live proxied TCP
  connection is aborted.

The proxy never interprets payloads beyond the two rewritten handshake
fields, so everything the real stack does — sequence numbering,
dedupe, resume, NACK repair — is exercised verbatim through it.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable

from repro.errors import ConfigurationError, TransportError
from repro.faults.injector import FaultInjector, Lever
from repro.faults.plan import (
    BrokerCrash,
    ConnectionReset,
    DropBurst,
    FaultEvent,
    FaultPlan,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import RegistryBackedStats
from repro.transport.base import parse_garnet_url
from repro.transport.framing import (
    HELLO,
    RESPONSE_FLAG,
    RESUME,
    ControlFrameAssembler,
    encode_control_frame,
    parse_control_body,
)


class ChaosStats(RegistryBackedStats):
    """Wall-clock chaos accounting; all counters monotonic."""

    PREFIX = "chaos"
    datagrams_forwarded: int = 0
    datagrams_dropped: int = 0
    bytes_blackholed: int = 0
    resets_injected: int = 0
    connections_refused: int = 0
    connections_proxied: int = 0


class _RelayProtocol(asyncio.DatagramProtocol):
    """Per-connection UDP relay between one client and the broker."""

    def __init__(self, proxy: "ChaosProxy") -> None:
        self.proxy = proxy
        self.transport: asyncio.DatagramTransport | None = None
        self.client_address: tuple[str, int] | None = None
        self.broker_address: tuple[str, int] | None = None

    def connection_made(self, transport) -> None:  # pragma: no cover
        self.transport = transport

    @property
    def port(self) -> int:
        return self.transport.get_extra_info("sockname")[1]

    def datagram_received(self, data: bytes, addr) -> None:
        if addr == self.client_address:
            if self.broker_address is not None:
                self.proxy._relay(self, data, self.broker_address)
            return
        # The only other peer on this relay is the broker's data
        # socket — and its deliveries can start *before* the handshake
        # response names the data port (resume replay fires during the
        # RESUME exchange), so learn the address from traffic too.
        if self.broker_address is None:
            self.broker_address = addr
        if self.client_address is not None:
            self.proxy._relay(self, data, self.client_address)

    def send(self, data: bytes, addr: tuple[str, int]) -> None:
        if self.transport is not None:
            self.transport.sendto(data, addr)


class _ProxiedConnection:
    """One client TCP connection proxied to the upstream broker."""

    def __init__(self, proxy: "ChaosProxy") -> None:
        self.proxy = proxy
        self.client_writer: asyncio.StreamWriter | None = None
        self.broker_writer: asyncio.StreamWriter | None = None
        self.relay: _RelayProtocol | None = None
        self.to_broker = ControlFrameAssembler()
        self.to_client = ControlFrameAssembler()

    def abort(self) -> None:
        for writer in (self.client_writer, self.broker_writer):
            if writer is not None and writer.transport is not None:
                writer.transport.abort()


def _upstream(broker: str | None) -> None:
    if broker is not None:
        raise ConfigurationError(
            f"a chaos proxy fronts one broker; it cannot crash {broker!r}"
        )


class ChaosProxy:
    """A fault-injecting proxy in front of a live broker.

    ``upstream`` is the broker's ``garnet://host:port`` URL. ``plan`` is
    the scripted fault plan (wall-clock seconds after :meth:`start`).
    ``seed`` fixes the drop RNG so a chaos run's loss pattern is
    reproducible. ``on_broker_restart`` is invoked when each
    :class:`~repro.faults.plan.BrokerCrash` window opens. The proxy's
    own :attr:`metrics` registry holds the ``chaos.*`` counters behind
    :attr:`stats` and the injector's ``faults.*`` counters.

    Use from an event loop::

        proxy = ChaosProxy(broker.url, plan=FaultPlan(events=(...)), seed=7)
        await proxy.start()
        session = connect(proxy.url, "app", reconnect=True)
    """

    def __init__(
        self,
        upstream: str,
        plan: FaultPlan = FaultPlan(),
        host: str | None = None,
        port: int = 0,
        seed: int = 0,
        on_broker_restart: Callable[[], Any] | None = None,
    ) -> None:
        self.upstream_host, self.upstream_port = parse_garnet_url(upstream)
        self.host = host if host is not None else self.upstream_host
        self._requested_port = port
        self.port: int | None = None
        self.metrics = MetricsRegistry()
        self.stats = ChaosStats(self.metrics)
        self._injector = FaultInjector(
            plan,
            schedule=self._schedule,
            metrics=self.metrics,
            levers={
                DropBurst: Lever(self._set_loss, self._set_loss),
                BrokerCrash: Lever(self._crash, self._recover, _upstream),
                ConnectionReset: Lever(self._reset),
            },
        )
        self._rng = random.Random(seed)
        self._on_broker_restart = on_broker_restart
        # What the relay reads per datagram; the injector sets both.
        self._loss = 0.0
        self._blackholed = False
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[_ProxiedConnection] = set()
        self._timers: list[asyncio.TimerHandle] = []

    @property
    def url(self) -> str:
        if self.port is None:
            raise TransportError("chaos proxy not started")
        return f"garnet://{self.host}:{self.port}"

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._injector.arm()

    async def stop(self) -> None:
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for connection in list(self._connections):
            connection.abort()
            if connection.relay is not None:
                connection.relay.transport.close()
        self._connections.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Levers
    # ------------------------------------------------------------------
    def _schedule(
        self,
        at: float,
        callback: Callable[[FaultEvent], None],
        event: FaultEvent,
    ) -> None:
        self._timers.append(self._loop.call_later(at, callback, event))

    def _set_loss(self, rate: float) -> None:
        self._loss = rate

    def _crash(self, _broker: None) -> None:
        self._blackholed = True
        if self._on_broker_restart is not None:
            # The callback bounces a subprocess — keep the loop free.
            self._loop.run_in_executor(None, self._on_broker_restart)

    def _recover(self, _broker: None) -> None:
        self._blackholed = False

    def _reset(self, _event: ConnectionReset) -> None:
        for connection in list(self._connections):
            connection.abort()
            self.stats.resets_injected += 1

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _relay(
        self, relay: _RelayProtocol, data: bytes, destination: tuple[str, int]
    ) -> None:
        if self._blackholed or (
            self._loss and self._rng.random() < self._loss
        ):
            self.stats.datagrams_dropped += 1
            return
        relay.send(data, destination)
        self.stats.datagrams_forwarded += 1

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    async def _serve_client(
        self,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
    ) -> None:
        if self._blackholed:
            self.stats.connections_refused += 1
            client_writer.transport.abort()
            return
        connection = _ProxiedConnection(self)
        connection.client_writer = client_writer
        try:
            broker_reader, broker_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            client_writer.transport.abort()
            return
        connection.broker_writer = broker_writer
        relay_transport, relay = await self._loop.create_datagram_endpoint(
            lambda: _RelayProtocol(self), local_addr=(self.host, 0)
        )
        relay.transport = relay_transport
        connection.relay = relay
        self._connections.add(connection)
        self.stats.connections_proxied += 1
        try:
            await asyncio.gather(
                self._pipe(
                    connection, client_reader, broker_writer,
                    connection.to_broker,
                ),
                self._pipe(
                    connection, broker_reader, client_writer,
                    connection.to_client,
                ),
            )
        finally:
            self._connections.discard(connection)
            connection.abort()
            relay_transport.close()

    async def _pipe(
        self,
        connection: _ProxiedConnection,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        assembler: ControlFrameAssembler,
    ) -> None:
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                if self._blackholed:
                    # The stream is now corrupt for the peer; that is
                    # the point — a blackholed link loses bytes.
                    self.stats.bytes_blackholed += len(chunk)
                    continue
                try:
                    frames = assembler.feed(chunk)
                except TransportError:
                    break
                for frame_type, body in frames:
                    writer.write(
                        encode_control_frame(
                            frame_type,
                            self._rewrite(connection, frame_type, body),
                        )
                    )
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            if writer.transport is not None:
                writer.transport.abort()

    def _rewrite(
        self, connection: _ProxiedConnection, frame_type: int, body: dict
    ) -> dict:
        """Swap the UDP rendezvous fields through the relay.

        Only a handshake the broker would accept is rewritten; any other
        frame goes through unchanged, for the broker to refuse.
        """
        relay = connection.relay
        if frame_type in (HELLO, RESUME):
            try:
                udp_port = parse_control_body(frame_type, body)["udp_port"]
            except TransportError:
                return body
            if relay.client_address is None:
                # Deliveries may start before the client's first
                # publish reveals its socket; the HELLO announcement
                # pins it down.
                peer = connection.client_writer.get_extra_info("peername")
                relay.client_address = (
                    peer[0] if peer else self.host, udp_port
                )
            return {**body, "udp_port": relay.port}
        if (
            frame_type in (HELLO | RESPONSE_FLAG, RESUME | RESPONSE_FLAG)
            and "data_port" in body
        ):
            relay.broker_address = (
                self.upstream_host, int(body["data_port"])
            )
            return {**body, "data_port": relay.port}
        return body


__all__ = ["ChaosProxy", "ChaosStats"]
