"""Discrete-event simulation substrate for the Garnet reproduction.

The paper ran its Java prototype over real/simulated wireless hardware
(iPAQs and notebook PCs on IEEE 802.11b, Section 8). This package replaces
that testbed with a deterministic discrete-event simulation: a kernel with
a virtual clock (:mod:`repro.simnet.kernel`), an unreliable broadcast
wireless medium (:mod:`repro.simnet.wireless`), a reliable fixed network
for the middleware services (:mod:`repro.simnet.fixednet`) and node
mobility models (:mod:`repro.simnet.mobility`).
"""

from repro.simnet.fixednet import FixedNetwork, RpcEndpoint
from repro.simnet.geometry import Circle, Point, Rect
from repro.simnet.kernel import EventHandle, Simulator
from repro.simnet.mobility import (
    MobilityModel,
    PathFollower,
    RandomWaypoint,
    Stationary,
)
from repro.simnet.wireless import RadioFrame, RadioListener, WirelessMedium

__all__ = [
    "Circle",
    "EventHandle",
    "FixedNetwork",
    "MobilityModel",
    "PathFollower",
    "Point",
    "RadioFrame",
    "RadioListener",
    "RandomWaypoint",
    "Rect",
    "RpcEndpoint",
    "Simulator",
    "Stationary",
    "WirelessMedium",
]
