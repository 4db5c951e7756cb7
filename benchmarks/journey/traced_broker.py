"""``garnet-broker`` with spans around the layers' entry points.

Serves exactly what ``python -m repro.transport.cli`` serves — same
arguments, same announce line — by running the CLI's own ``_serve``
after patching the entry points of each layer with
:class:`tracing.Tracer` wrappers:

=============================  =======================================
span                           entry point
=============================  =======================================
transport.broker.datagram      ``_DataPlaneProtocol.datagram_received``
transport.broker.control       ``LiveBroker._handle_frame``
transport.broker.sendto        the stdlib datagram transport's ``sendto``
core.message.decode / encode   ``MessageCodec.decode`` / ``encode``
simnet.fixednet.send           ``FixedNetwork.send``
simnet.kernel.pump             ``Garnet.run_until_idle``
core.dispatching.on_arrival    ``DispatchingService.on_arrival``
store.append / store.read      ``StreamStore.append`` / ``read``
asyncio.select                 ``selectors.EpollSelector.select``
asyncio.read_ready             the datagram transport's ``_read_ready``
                               (``recvfrom``, then ``datagram_received``)
=============================  =======================================

SIGUSR1 zeroes the spans and takes the counter/clock baseline (the
harness sends it once set-up is over); SIGUSR2 keeps a copy of the
report as it stands (the harness sends it when the saturated phase
ends, while the broker has been busy throughout); SIGTERM writes both
reports — spans, the deployment's ``metrics_snapshot()`` delta,
``sim.events_processed``, CPU and wall time — to ``--trace-out`` and
stops the broker.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import sys
import time
from asyncio import selector_events
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402

from repro.core.dispatching import DispatchingService  # noqa: E402
from repro.core.message import MessageCodec  # noqa: E402
from repro.core.middleware import Garnet  # noqa: E402
from repro.simnet.fixednet import FixedNetwork  # noqa: E402
from repro.store.base import StreamStore  # noqa: E402
from repro.transport import broker as broker_module  # noqa: E402
from repro.transport import cli  # noqa: E402


class _TracedTransport:
    """The asyncio datagram transport with a span around ``sendto``."""

    def __init__(self, transport, tracer: Tracer) -> None:
        self._transport = transport
        self.sendto = tracer.wrap("transport.broker.sendto", transport.sendto)

    def __getattr__(self, name):
        return getattr(self._transport, name)


class _Session:
    """What the signal handlers need: the broker and the baselines."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.broker = None
        self.baseline = None
        self.saturated = None

    def mark(self) -> None:
        self.tracer.reset()
        self.baseline = self._reading()

    def freeze(self) -> None:
        self.saturated = self.report()

    def _reading(self) -> dict:
        deployment = self.broker.deployment
        return {
            "counters": dict(deployment.metrics_snapshot()["counters"]),
            "events_processed": deployment.sim.events_processed,
            # user+system from the tick accounting, which (unlike the
            # scheduler's run time) includes the loopback softirq work
            # done in this process's context.
            "cpu_ns": int(sum(os.times()[:2]) * 1e9),
            "wall_ns": time.perf_counter_ns(),
            "subscriptions": deployment.dispatcher.subscription_count(),
        }

    def report(self) -> dict:
        now = self._reading()
        base = self.baseline
        deployment = self.broker.deployment
        store = deployment.store
        report = self.tracer.snapshot()
        report["counters"] = {
            name: value - base["counters"].get(name, 0.0)
            for name, value in now["counters"].items()
        }
        for key in ("events_processed", "cpu_ns", "wall_ns"):
            report[key] = now[key] - base[key]
        # The clients may already have closed when the dump is taken.
        report["subscriptions"] = max(
            base["subscriptions"], now["subscriptions"]
        )
        report["store"] = None
        if store is not None:
            report["store"] = {
                "bytes_on_disk": store.total_bytes,
                "retained_records": sum(
                    store.record_count(stream) for stream in store.streams()
                ),
            }
        return report


def _patch(tracer: Tracer, session: _Session) -> None:
    tracer.patch(
        broker_module._DataPlaneProtocol,
        "datagram_received",
        "transport.broker.datagram",
    )
    tracer.patch(
        broker_module.LiveBroker, "_handle_frame", "transport.broker.control"
    )
    tracer.patch(MessageCodec, "decode", "core.message.decode")
    tracer.patch(MessageCodec, "encode", "core.message.encode", with_id=True)
    tracer.patch(FixedNetwork, "send", "simnet.fixednet.send", with_id=True)
    tracer.patch(Garnet, "run_until_idle", "simnet.kernel.pump")
    tracer.patch(
        DispatchingService,
        "on_arrival",
        "core.dispatching.on_arrival",
        with_id=True,
    )
    tracer.patch(StreamStore, "append", "store.append")
    tracer.patch(StreamStore, "read", "store.read")
    # The event loop's own share: polling and the receive system call.
    tracer.patch(selectors.EpollSelector, "select", "asyncio.select")
    tracer.patch(
        selector_events._SelectorDatagramTransport,
        "_read_ready",
        "asyncio.read_ready",
    )

    start = broker_module.LiveBroker.start

    async def traced_start(self):
        await start(self)
        if getattr(self, "_udp", None) is not None:
            self._udp = _TracedTransport(self._udp, tracer)
        session.broker = self
        session.mark()

    broker_module.LiveBroker.start = traced_start


async def _main(args, trace_out: str) -> None:
    tracer = Tracer()
    session = _Session(tracer)
    _patch(tracer, session)
    loop = asyncio.get_running_loop()
    serving = loop.create_task(cli._serve(args))

    def dump_and_stop() -> None:
        # Report before the teardown, so stopping is not in the budget.
        try:
            if session.broker is not None:
                dump = {"saturated": session.saturated,
                        "whole": session.report()}
                Path(trace_out).write_text(
                    json.dumps(dump) + "\n", encoding="utf-8"
                )
        finally:
            serving.cancel()

    loop.add_signal_handler(signal.SIGUSR1, session.mark)
    loop.add_signal_handler(signal.SIGUSR2, session.freeze)
    loop.add_signal_handler(signal.SIGTERM, dump_and_stop)
    try:
        await serving
    except asyncio.CancelledError:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = cli.build_parser()
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)
    asyncio.run(_main(args, args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
