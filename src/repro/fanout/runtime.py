"""Deployment-level wiring for hierarchical fan-out (``fanout_enabled``).

The :class:`FanoutRuntime` owns the deployment's fan-out trees and
installs the dispatcher hook that intercepts tree-root legs before they
hit the fixed network. Inter-broker legs of a clustered deployment are
not its business: they stay one ``RemoteDelivery`` each.

Everything here is constructed only when ``fanout_enabled=True``; the
default build never imports this module, which is what keeps the flag
off byte-identical to the golden digests.
"""

from __future__ import annotations

from typing import Any

from repro.core.envelopes import StreamArrival
from repro.errors import ConfigurationError
from repro.fanout.tree import FanoutMember, FanoutTree
from repro.obs.stats import RegistryBackedStats

#: The deployment's default tree (built eagerly so ``fanout.attach``
#: works out of the box); extra trees via ``FanoutRuntime.new_tree``.
DEFAULT_TREE = "t0"


class FanoutStats(RegistryBackedStats):
    PREFIX = "fanout"

    attached: int = 0
    detached: int = 0
    root_batches: int = 0
    relay_forwards: int = 0
    leaf_deliveries: int = 0
    quarantine_diverted: int = 0


class FanoutRuntime:
    """The fan-out subsystem of one deployment."""

    def __init__(self, deployment: Any) -> None:
        self._deployment = deployment
        metrics = deployment.metrics()
        self.stats = FanoutStats(metrics)
        self._sessions_gauge = self.stats.registry.gauge(
            "fanout.sessions_active",
            help="consumers currently attached to fan-out trees",
        )
        self._relays_gauge = self.stats.registry.gauge(
            "fanout.relays", help="relay nodes across all fan-out trees"
        )
        self._trees: dict[str, FanoutTree] = {}
        self._roots: dict[str, FanoutTree] = {}
        # Intercept tree-root legs in every dispatcher of the deployment.
        for node in deployment.nodes:
            node.dispatcher.install(fanout=self)
        self.tree = self.new_tree(DEFAULT_TREE)

    # ------------------------------------------------------------------
    # Tree management
    # ------------------------------------------------------------------
    def new_tree(self, name: str, **shape: int) -> FanoutTree:
        """Stand up another tree (e.g. per tenant).

        ``shape`` is FanoutTree's ``branching`` and ``levels``; either
        left out keeps the tree's default (64 children, three levels).
        """
        if name in self._trees:
            raise ConfigurationError(f"fan-out tree {name!r} already exists")
        deployment = self._deployment
        tree = FanoutTree(
            name,
            network=deployment.network,
            dispatcher=deployment.dispatcher,
            registry=deployment.registry,
            **shape,
            delivery=deployment.qos.delivery,
            stats=self.stats,
            relays_gauge=self._relays_gauge,
            sessions_gauge=self._sessions_gauge,
        )
        self._trees[name] = tree
        self._roots[tree.root_inbox] = tree
        return tree

    def attach(self, name: str, patterns: Any, on_data: Any) -> FanoutMember:
        """Attach a consumer to the deployment's default tree."""
        return self.tree.attach(name, patterns, on_data)

    def session_count(self) -> int:
        return sum(tree.session_count() for tree in self._trees.values())

    def relay_count(self) -> int:
        return sum(tree.relay_count() for tree in self._trees.values())

    # ------------------------------------------------------------------
    # Dispatcher hook (repro.core.dispatching calls these per leg)
    # ------------------------------------------------------------------
    def is_root(self, endpoint: str) -> bool:
        return endpoint in self._roots

    def deliver_root(self, endpoint: str, arrival: StreamArrival) -> int:
        return self._roots[endpoint].deliver_root(arrival)

    def invalidate(self, stream_id: Any = None) -> None:
        for tree in self._trees.values():
            tree.invalidate(stream_id)
