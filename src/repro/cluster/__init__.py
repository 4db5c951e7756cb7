"""Clustered Garnet: sharded multi-broker federation.

``repro.cluster`` runs N Garnet brokers over the existing fixed-network
substrate. Stream ownership is assigned by consistent hashing
(:class:`StreamShardMap`), messages and subscription interest cross
broker boundaries over :class:`InterBrokerLink` endpoints with interest
aggregation (once per link per message), and a
:class:`ClusterCoordinator` turns broker crashes into ownership handoffs
with buffered replay so consumers see gap-free streams.

Enable with ``GarnetConfig(cluster_enabled=True, cluster_brokers=N)``;
when disabled (the default) none of this package's machinery is
installed and single-broker behaviour is bit-for-bit unchanged.
"""

from repro.cluster.coordinator import ClusterCoordinator, HandoffBuffer
from repro.cluster.link import (
    LINK_INBOX_PREFIX,
    InterBrokerLink,
    InterestUpdate,
    RemoteDelivery,
    ReplayedPublish,
)
from repro.cluster.node import BrokerNode
from repro.cluster.runtime import (
    INGRESS_INBOX,
    ClusterRouter,
    ClusterRuntime,
    ClusterStats,
    DisabledCluster,
)
from repro.cluster.shards import StreamShardMap

__all__ = [
    "BrokerNode",
    "ClusterCoordinator",
    "ClusterRouter",
    "ClusterRuntime",
    "ClusterStats",
    "DisabledCluster",
    "HandoffBuffer",
    "INGRESS_INBOX",
    "InterBrokerLink",
    "InterestUpdate",
    "LINK_INBOX_PREFIX",
    "RemoteDelivery",
    "ReplayedPublish",
    "StreamShardMap",
]
