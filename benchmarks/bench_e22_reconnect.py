"""E22: reconnect under chaos — resilient live sessions end to end.

The chaos gate for the resilient transport: a publisher and a
subscriber ride out a :class:`~repro.faults.plan.FaultPlan` injected by
:class:`~repro.transport.chaos.ChaosProxy` —

- a ``DropBurst`` of **2% datagram loss** on the subscriber's link for
  the whole run (repaired by NACK/store gap repair; the subscriber
  sends no datagrams, so every draw is on its delivery path),
- **one TCP connection reset** mid-stream (``ConnectionReset``:
  reconnect + resume),
- **one broker restart** mid-stream (a ``BrokerCrash`` window): the
  broker process behind the proxy is actually stopped and relaunched on
  the same ports over the same file store and persisted session table
  (resume across process death, publish buffering, store replay).

The subscriber must end the run with a delivery ratio **>= 0.999 and
zero duplicate callbacks**; both are hard ``--check`` gates, enforced
in CI in quick mode.

Usage::

    PYTHONPATH=src python benchmarks/bench_e22_reconnect.py [--quick]
        [--check] [--output BENCH_e22_reconnect.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.core.config import GarnetConfig
from repro.core.middleware import Garnet
from repro.faults import BrokerCrash, ConnectionReset, DropBurst, FaultPlan
from repro.transport import LiveBroker, connect
from repro.transport.chaos import ChaosProxy
from repro.util.backoff import BackoffPolicy

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_e22_reconnect.json"
)
DELIVERY_RATIO_GATE = 0.999
DUPLICATE_GATE = 0
LOSS_RATE = 0.02
#: Aggressive but bounded re-dial schedule so outages resolve fast.
RECONNECT = BackoffPolicy(
    base=0.1, multiplier=1.5, max_delay=0.5, jitter=0.0, max_attempts=120
)


class RestartableBroker:
    """A LiveBroker on its own loop that can be bounced in place.

    Restart reuses the same control/data ports, the same file-backed
    store directory and the same ``sessions.json``, so clients resume
    against the replacement exactly as they would against a bounced
    broker process.
    """

    def __init__(self, root: Path) -> None:
        self.store_dir = root / "store"
        self.sessions_path = root / "sessions.json"
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="e22-broker", daemon=True
        )
        self.thread.start()
        self.broker = self._boot(control_port=0, data_port=0)
        self.control_port = self.broker.control_port
        self.data_port = self.broker.data_port
        self.restarts = 0

    def _deployment(self) -> Garnet:
        return Garnet(
            config=GarnetConfig(
                publish_location_stream=False,
                store_enabled=True,
                store_dir=str(self.store_dir),
                transport_resume_grace=30.0,
            )
        )

    def _boot(self, control_port: int, data_port: int) -> LiveBroker:
        broker = LiveBroker(
            deployment=self._deployment(),
            control_port=control_port,
            data_port=data_port,
            sessions_path=self.sessions_path,
        )
        self._run(broker.start())
        return broker

    def _run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(30)

    @property
    def url(self) -> str:
        return self.broker.url

    def restart(self) -> None:
        """Stop the broker and boot a fresh one on the same ports."""
        self._run(self.broker.stop())
        self.broker = self._boot(self.control_port, self.data_port)
        self.restarts += 1

    def stop(self) -> None:
        self._run(self.broker.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def run_scenario(
    messages: int,
    publish_interval: float,
    reset_at: float,
    restart_at: float,
    restart_window: float,
    flush_timeout: float,
) -> dict:
    with tempfile.TemporaryDirectory(prefix="e22-") as tmp:
        box = RestartableBroker(Path(tmp))
        proxy_loop = box.loop
        proxy = ChaosProxy(
            box.url,
            plan=FaultPlan(
                events=(
                    DropBurst(at=0.0, duration=3600.0, extra_loss=LOSS_RATE),
                    ConnectionReset(at=reset_at),
                    BrokerCrash(at=restart_at, duration=restart_window),
                )
            ),
            seed=22,
            on_broker_restart=box.restart,
        )
        asyncio.run_coroutine_threadsafe(
            proxy.start(), proxy_loop
        ).result(10)
        received: list[int] = []
        # The subscriber rides through the proxy and takes the whole
        # fault plan; the publisher dials the broker directly and
        # takes the restart (publish buffering + resume + resend).
        subscriber = connect(
            proxy.url, "e22-sub", reconnect=RECONNECT, keepalive=0.2
        )
        publisher = connect(
            box.url, "e22-pub", reconnect=RECONNECT, keepalive=0.2
        )
        start = time.perf_counter()
        try:
            subscriber.on_data(
                lambda arrival: received.append(arrival.message.sequence)
            )
            subscriber.subscribe(kind="chaos")
            for index in range(messages):
                publisher.publish(0, index.to_bytes(4, "big"), kind="chaos")
                time.sleep(publish_interval)
            publish_elapsed = time.perf_counter() - start

            # Flush: tail losses leave no later delivery to expose the
            # gap, so keep publishing markers (fresh sequences beyond
            # the measured run) until the run has fully landed.
            target = set(range(messages))
            deadline = time.monotonic() + flush_timeout
            flushes = 0
            while (
                len(target & set(received)) < messages
                and time.monotonic() < deadline
            ):
                try:
                    publisher.publish(0, b"\xff", kind="chaos")
                    flushes += 1
                except Exception:
                    pass  # mid-outage: the next loop retries
                time.sleep(0.1)
            total_elapsed = time.perf_counter() - start

            delivered = len(target & set(received))
            duplicates = len(received) - len(set(received))
            return {
                "messages": messages,
                "delivered": delivered,
                "delivery_ratio": round(delivered / messages, 5),
                "duplicates": duplicates,
                "publish_wall_s": round(publish_elapsed, 2),
                "wall_s": round(total_elapsed, 2),
                "flush_publishes": flushes,
                "loss_rate": LOSS_RATE,
                "broker_restarts": box.restarts,
                "proxy": proxy.metrics.snapshot()["counters"],
                "subscriber": subscriber.stats.as_dict(),
                "publisher": {
                    key: value
                    for key, value in publisher.stats.as_dict().items()
                    if value
                },
            }
        finally:
            subscriber.close()
            publisher.close()
            asyncio.run_coroutine_threadsafe(
                proxy.stop(), proxy_loop
            ).result(10)
            box.stop()


def run_all(quick: bool) -> dict:
    if quick:
        scenario = run_scenario(
            messages=600,
            publish_interval=0.005,
            reset_at=1.0,
            restart_at=2.0,
            restart_window=0.8,
            flush_timeout=30.0,
        )
    else:
        scenario = run_scenario(
            messages=4000,
            publish_interval=0.0025,
            reset_at=3.0,
            restart_at=6.0,
            restart_window=1.0,
            flush_timeout=60.0,
        )
    return {
        "experiment": "E22 reconnect under chaos (live sockets)",
        "mode": "quick" if quick else "full",
        "chaos": scenario,
    }


def check_acceptance(fresh: dict) -> list[str]:
    failures = []
    chaos = fresh["chaos"]
    if chaos["delivery_ratio"] < DELIVERY_RATIO_GATE:
        failures.append(
            f"chaos: delivery ratio {chaos['delivery_ratio']} "
            f"< {DELIVERY_RATIO_GATE}"
        )
    if chaos["duplicates"] > DUPLICATE_GATE:
        failures.append(
            f"chaos: {chaos['duplicates']} duplicate deliveries "
            f"(gate: {DUPLICATE_GATE})"
        )
    if chaos["broker_restarts"] < 1:
        failures.append("chaos: the broker restart never fired")
    if chaos["proxy"]["chaos.resets_injected"] < 1:
        failures.append("chaos: the TCP reset never fired")
    if chaos["proxy"]["chaos.datagrams_dropped"] < 1:
        failures.append("chaos: the loss plan dropped nothing")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter scenario (CI smoke mode)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail when the chaos gates are violated",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    fresh = run_all(args.quick)
    print(json.dumps(fresh, indent=2))

    if args.check:
        failures = check_acceptance(fresh)
        if failures:
            for failure in failures:
                print(f"E22 CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("e22 check: chaos gates hold")
    else:
        args.output.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
