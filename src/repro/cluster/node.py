"""One broker node: a broker's slice of Figure 1, and where it is wired.

A :class:`BrokerNode` groups the services that exist once *per broker* —
Broker front door, Dispatching Service, Orphanage, optional admission
controller and, in a federation, the node's inter-broker link — and
constructing one is the only way those services get built. The
deployment facade builds the *primary* (``b0``, the only node of an
un-clustered deployment, under the historical inbox names, so
``deployment.broker`` etc. keep meaning "the primary") and the cluster
runtime ``b1..bN``, so a node cannot be wired differently from its peers.

Crashing a federated node models the whole broker host dying: the broker
loses its session state and the node's dispatch and link inboxes leave
the fixed network (in-flight frames dead-letter — exactly the gap
handoff replay exists to fill). A lone broker has no peer to take over,
so only its front door dies and data keeps falling through to the
Orphanage. The orphanage's retained backlog survives a crash, like data
already flushed to disk.
"""

from __future__ import annotations

from typing import Any

from repro.core.dispatching import (
    INBOX,
    ORPHANAGE_INBOX,
    DispatchingService,
)
from repro.core.orphanage import Orphanage
from repro.core.pubsub import SERVICE_NAME, Broker
from repro.qos import AdmissionController, DropByStreamPriority, DropOldest


class BrokerNode:
    """Name + per-broker services + liveness levers.

    Per node: dispatcher, orphanage, broker and (with
    ``qos_ingress_rate``) an admission controller in front of the
    dispatcher. Shared by every node, so taken from the deployment: the
    delivery manager (its queues are keyed by consumer endpoint, which is
    cluster-global) and the store tap (its dedupe windows keep handoff
    replay at a new owner from double-appending).
    """

    def __init__(
        self, deployment: Any, name: str, *, primary: bool = False
    ) -> None:
        cfg = deployment.config
        network = deployment.network
        metrics = deployment.metrics()
        suffix = "" if primary else f".{name}"
        orphanage_inbox = ORPHANAGE_INBOX + suffix
        advertisement_inbox = f"{SERVICE_NAME}{suffix}.advertisements"
        self.name = name
        self._network = network
        self.dispatcher = DispatchingService(
            network,
            deployment.registry,
            orphanage_inbox=orphanage_inbox,
            metrics=metrics,
            inbox=INBOX + suffix,
            broker_inbox=advertisement_inbox,
            delivery=deployment.qos.delivery,
            store=deployment.store_tap,
        )
        self.orphanage = Orphanage(
            network,
            backlog_per_stream=cfg.orphanage_backlog,
            metrics=metrics,
            inbox=orphanage_inbox,
        )
        self.broker = Broker(
            network,
            deployment.registry,
            self.dispatcher,
            deployment.auth,
            metrics=metrics,
            lease_ttl=cfg.broker_lease_ttl,
            advertisement_inbox=advertisement_inbox,
        )
        self.admission: AdmissionController | None = None
        if cfg.qos_ingress_rate is not None:
            self.admission = AdmissionController(
                deployment.sim,
                self.dispatcher.process_admitted,
                rate=cfg.qos_ingress_rate,
                burst=cfg.qos_ingress_burst,
                queue_capacity=cfg.qos_ingress_queue,
                policy=(
                    DropByStreamPriority(deployment.stream_priority)
                    if cfg.qos_shedding == "priority"
                    else DropOldest()
                ),
                metrics=metrics,
            )
            self.dispatcher.install(admission=self.admission)
        # Installed by the ClusterRuntime once the node's router exists.
        self.link: Any | None = None

    @property
    def dispatch_inbox(self) -> str:
        return self.dispatcher.inbox

    @property
    def link_inbox(self) -> str:
        return self.link.inbox

    @property
    def up(self) -> bool:
        return self.broker.up

    def crash(self) -> None:
        """Kill the broker and, in a federation, the node's inboxes."""
        if not self.broker.up:
            return
        # Broker first: tearing down its endpoints fires InterestRemove
        # frames to the peers while this node can still send.
        self.broker.crash()
        if self.link is not None:
            if self._network.has_inbox(self.dispatch_inbox):
                self._network.unregister_inbox(self.dispatch_inbox)
            self.link.unregister()

    def restart(self) -> None:
        """Bring the node back empty; sessions recover via heartbeat."""
        if self.broker.up:
            return
        self.broker.restart()
        if self.link is not None:
            if not self._network.has_inbox(self.dispatch_inbox):
                self._network.register_inbox(
                    self.dispatch_inbox, self.dispatcher.on_arrival
                )
            self.link.register()
