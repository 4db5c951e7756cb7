"""Handoff machinery: the replay buffer and the cluster coordinator.

The coordinator is the control loop that turns broker-liveness changes
into ownership handoffs. It polls each node's broker (the same ``up``
flag the lease/heartbeat machinery exposes) on a periodic task; when the
live set changes it recomputes stream ownership under the new membership
and replays the affected streams' buffered backlog to their new owners,
so subscribed consumers see a gap-free stream across the crash.

The :class:`HandoffBuffer` is the orphanage-style bounded backlog behind
that replay: every fresh arrival entering the cluster is teed into it
(idempotently, through a per-stream sequence window) *before* any
forwarding, so a message lost in flight to a dead owner is still
replayable. Per-node sequence windows
(:class:`~repro.util.ids.SequenceWindow`) make the replay no-duplicate:
copies a consumer already received are suppressed at the new owner and
at every link.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.link import ReplayedPublish
from repro.core.envelopes import StreamArrival
from repro.core.streamid import StreamId
from repro.obs.registry import Counter
from repro.simnet.kernel import PeriodicTask
from repro.util.backlog import Backlog
from repro.util.ids import SEQUENCE_WINDOW, SequenceWindow

#: Arrivals the handoff buffer retains per stream: the newest this many
#: are what an ownership handoff can replay.
HANDOFF_CAPACITY = 64


class HandoffBuffer:
    """Bounded per-stream backlog of recent arrivals, keyed by sequence.

    ``evicted`` counts arrivals a full backlog pushed out: those are no
    longer replayable. The cluster runtime rebinds it to its registry's
    ``cluster.handoff_evicted`` before the first arrival.
    """

    def __init__(self) -> None:
        self._streams: dict[
            StreamId, tuple[Backlog[StreamArrival], SequenceWindow]
        ] = {}
        self.evicted = Counter("cluster.handoff_evicted")

    def add(self, stream_id: StreamId, arrival: StreamArrival) -> bool:
        """Retain ``arrival``; False when the stream's sequence window
        rejects it (already teed, or stale).

        Idempotence matters because an arrival is teed both where it
        enters the cluster and again at the owner it was forwarded to.
        """
        entry = self._streams.get(stream_id)
        if entry is None:
            entry = self._streams[stream_id] = (
                Backlog(HANDOFF_CAPACITY, self.evicted),
                SequenceWindow(SEQUENCE_WINDOW),
            )
        backlog, window = entry
        if not window.add(arrival.message.sequence):
            return False
        backlog.append(arrival)
        return True

    def streams(self) -> list[StreamId]:
        return list(self._streams)

    def entries(self, stream_id: StreamId) -> list[StreamArrival]:
        entry = self._streams.get(stream_id)
        return list(entry[0]) if entry is not None else []

    def retained(self, stream_id: StreamId) -> int:
        entry = self._streams.get(stream_id)
        return len(entry[0]) if entry is not None else 0


class ClusterCoordinator:
    """Detects owner crashes and executes ownership handoff with replay."""

    def __init__(
        self,
        runtime: Any,
        sim: Any,
        network: Any,
        period: float,
    ) -> None:
        self._runtime = runtime
        self._network = network
        self._task = PeriodicTask(sim, period, self.check)

    def stop(self) -> None:
        self._task.stop()

    def check(self) -> None:
        """One liveness poll; rebalances when membership changed."""
        runtime = self._runtime
        live = frozenset(
            name for name, node in runtime.nodes.items() if node.up
        )
        runtime.update_balance_gauges(live)
        if live == runtime.live:
            return
        old_live = runtime.live
        runtime.live = live
        runtime.stats.handoffs += 1
        moved = 0
        replayed = 0
        for stream_id in runtime.buffer.streams():
            old_owner = runtime.shards.owner(stream_id, old_live)
            new_owner = runtime.shards.owner(stream_id, live)
            if new_owner == old_owner:
                continue
            moved += 1
            node = runtime.nodes[new_owner]
            if not node.up:
                # Nobody live to hand this stream to; the buffer keeps
                # the backlog for a later membership change.
                continue
            for arrival in runtime.buffer.entries(stream_id):
                self._network.send(
                    node.link_inbox, ReplayedPublish(arrival=arrival)
                )
                replayed += 1
        runtime.stats.streams_reassigned += moved
        runtime.stats.replayed += replayed
