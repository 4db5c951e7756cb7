"""``garnet-broker``: boot a live Garnet broker on localhost.

Usage::

    garnet-broker [--host 127.0.0.1] [--port 7341] [--data-port 0]

Binds the TCP control plane on ``--port`` and the UDP data plane on
``--data-port`` (0 picks free ports) and announces both on stdout::

    garnet-broker listening control=127.0.0.1:7341 data=127.0.0.1:54012

Scripts (the E20 benchmark, the CI transport-smoke job) parse that line
to discover the ports, then connect with
``repro.transport.connect("garnet://127.0.0.1:7341", name)``. The
broker serves until interrupted.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from pathlib import Path

from repro.core.config import GarnetConfig
from repro.core.middleware import Garnet
from repro.errors import TransportError
from repro.transport.broker import LiveBroker

#: Default control port; chosen outside the ephemeral range and free of
#: registered-service collisions on typical hosts.
DEFAULT_CONTROL_PORT = 7341

ANNOUNCE_PREFIX = "garnet-broker listening"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garnet-broker", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind both planes on (default: loopback)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_CONTROL_PORT,
        help="TCP control-plane port (0 picks a free port)",
    )
    parser.add_argument(
        "--data-port",
        type=int,
        default=0,
        help="UDP data-plane port (default: pick a free port)",
    )
    parser.add_argument(
        "--store",
        action="store_true",
        help="retain published streams in a store (enables "
        "replay='history' subscriptions and QUERY)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="persist the store as file segments under DIR "
        "(implies --store; default: in-memory segments)",
    )
    parser.add_argument(
        "--resume-grace",
        type=float,
        default=None,
        metavar="SECONDS",
        help="park uncleanly-disconnected sessions for SECONDS and "
        "issue resume tokens (default: resume off); with --store-dir "
        "the session table persists as DIR/sessions.json so RESUME "
        "survives a broker restart",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="reap clients that go silent for SECONDS (missed "
        "keepalives / UDP inactivity) via the broker lease machinery "
        "(default: no leases)",
    )
    return parser


async def _serve(args: argparse.Namespace) -> None:
    # No periodic task (the location beacon): the broker pumps the
    # kernel to idle after every event.
    deployment = Garnet(
        config=GarnetConfig(
            publish_location_stream=False,
            store_enabled=bool(args.store or args.store_dir),
            store_dir=args.store_dir,
            broker_lease_ttl=args.lease_ttl,
            transport_resume_grace=args.resume_grace,
        )
    )
    sessions_path = None
    if args.resume_grace is not None and args.store_dir:
        sessions_path = Path(args.store_dir) / "sessions.json"
    broker = LiveBroker(
        deployment=deployment,
        host=args.host,
        control_port=args.port,
        data_port=args.data_port,
        sessions_path=sessions_path,
    )
    await broker.start()
    print(
        f"{ANNOUNCE_PREFIX} "
        f"control={broker.host}:{broker.control_port} "
        f"data={broker.host}:{broker.data_port}",
        flush=True,
    )
    try:
        await broker.wait_closed()
    except asyncio.CancelledError:
        pass
    finally:
        await broker.stop()
        if deployment.store is not None:
            deployment.store.close()


def parse_announce(line: str) -> tuple[str, int, int]:
    """``(host, control_port, data_port)`` from the announce line.

    Raises :class:`TransportError` with the offending input for
    anything that is not a complete, well-formed announce line —
    scripts scrape this off a subprocess pipe, where truncation and
    interleaved output are facts of life and a clear error beats a
    KeyError three frames deep.
    """
    if not line.startswith(ANNOUNCE_PREFIX):
        raise TransportError(f"not a garnet-broker announce line: {line!r}")
    fields = dict(
        part.split("=", 1)
        for part in line[len(ANNOUNCE_PREFIX) :].split()
        if "=" in part
    )
    endpoints = {}
    for label in ("control", "data"):
        value = fields.get(label)
        if value is None:
            raise TransportError(
                f"announce line is missing its {label}= endpoint "
                f"(truncated?): {line!r}"
            )
        host, _, port = value.rpartition(":")
        if not host or not port.isdigit():
            raise TransportError(
                f"announce {label}= endpoint {value!r} is not host:port: "
                f"{line!r}"
            )
        endpoints[label] = (host, int(port))
    control_host, control_port = endpoints["control"]
    return control_host, control_port, endpoints["data"][1]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
