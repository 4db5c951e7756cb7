"""Deployment transports: how Garnet endpoints reach each other.

The paper's Figure 1 connects middleware services over a *fixed
network*; the reproduction models that hop with
:class:`~repro.simnet.fixednet.FixedNetwork` inside the discrete-event
kernel. This package carries the same
:class:`~repro.core.message.MessageCodec` frames over real sockets on
localhost:

- :class:`LiveBroker` serves a deployment over asyncio — TCP for the
  control plane (register/subscribe/discover/advertise), UDP for the
  data plane (codec-framed publishes and deliveries);
- :class:`LiveSession` is the synchronous client, mirroring the
  :class:`~repro.core.session.GarnetSession` surface; with
  ``reconnect=`` it survives broker loss via resume tokens, gap repair
  and a backoff-driven re-dial loop (see :mod:`repro.transport.client`);
- :class:`ChaosProxy` (:mod:`repro.transport.chaos`) injects a
  :class:`~repro.faults.plan.FaultPlan` — datagram loss, connection
  resets, broker crashes — between a live session and its broker;
- ``garnet-broker`` (:mod:`repro.transport.cli`) boots a broker from
  the command line.
"""

from __future__ import annotations

from repro.transport.base import parse_garnet_url
from repro.transport.broker import LiveBroker
from repro.transport.chaos import ChaosProxy
from repro.transport.client import (
    DEFAULT_RECONNECT_POLICY,
    LiveSession,
    connect,
)
from repro.transport.framing import (
    CONTROL_FRAME_NAMES,
    ControlFrameAssembler,
    encode_control_frame,
)

__all__ = [
    "parse_garnet_url",
    "ControlFrameAssembler",
    "encode_control_frame",
    "CONTROL_FRAME_NAMES",
    "LiveBroker",
    "LiveSession",
    "connect",
    "DEFAULT_RECONNECT_POLICY",
    "ChaosProxy",
]
