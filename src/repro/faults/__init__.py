"""Deterministic fault injection for Garnet deployments (``repro.faults``).

Declare a :class:`FaultPlan` of timed failure windows, arm it with
:func:`inject`, run the simulation, and read the ``faults.*`` /
``resilience.*`` metrics to see what broke and how the middleware
recovered. Same seed + same plan = identical run, every time. The same
plan drives the live transport's socket proxy
(:class:`~repro.transport.chaos.ChaosProxy`) on wall-clock time.
"""

from repro.faults.injector import FaultInjector, Lever, inject
from repro.faults.plan import (
    BrokerCrash,
    ConnectionReset,
    ConsumerStall,
    DropBurst,
    FaultEvent,
    FaultPlan,
    FloodBurst,
    LatencySpike,
    NetworkPartition,
    ReceiverOutage,
    TransmitterOutage,
)

__all__ = [
    "BrokerCrash",
    "ConnectionReset",
    "ConsumerStall",
    "DropBurst",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FloodBurst",
    "LatencySpike",
    "Lever",
    "NetworkPartition",
    "ReceiverOutage",
    "TransmitterOutage",
    "inject",
]
