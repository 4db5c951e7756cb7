"""Multiprocess cluster execution: broker nodes in worker processes.

The shard map already partitions broker state, so a clustered
deployment is embarrassingly parallel *between* barriers: every
cross-broker interaction is an ordinary :class:`FixedNetwork` send with
at least ``message_latency`` of virtual latency. That latency is the
classic conservative-simulation *lookahead* — a process that has
executed everything up to virtual time ``B`` can safely keep running to
any time strictly before ``t_min + L`` (the earliest event anywhere
plus the minimum cross-process latency), because no peer can produce a
message that arrives sooner.

``run_multiprocess`` exploits exactly that:

- The deployment is **forked** (``multiprocessing.get_context("fork")``),
  so every worker inherits the fully built object graph — registries,
  shard map, dispatchers — without pickling a single service. Only
  inter-broker *frames* cross process boundaries, over pipes.
- The parent keeps broker ``b0`` (which wraps the deployment's
  historical single-broker services), the radio field, sensors,
  receivers, filtering, the cluster ingress and every consumer
  endpoint. Nodes ``b1..bN-1`` are partitioned round-robin over the
  workers.
- Each worker clears its inherited event queue (the parent's copy is
  authoritative) and installs remote routes for every inbox it does not
  own; the parent symmetrically remote-routes the inboxes of shipped
  nodes. Deliveries that were scheduled at build time (interest
  broadcasts, advertisements) are swept out of the parent's queue and
  re-injected in the owning worker at their original arrival times.
- Execution proceeds in lockstep epochs: everyone runs to the barrier
  ``B``, reports its outbound frames and next local event time, the
  parent merges all outboxes in a deterministic global order
  ``(arrival_time, origin_rank, index)`` and distributes each frame to
  the process owning its destination, then announces the next barrier
  ``B' = min(t_end, t_min + L/2)``. ``t_min + L/2`` is strictly below
  the earliest possible new arrival, so injected frames are never late;
  determinism follows because frame *injection order* — and therefore
  kernel sequence numbers — is the same on every run.

Within a timestamp, event interleaving can differ from the
single-process schedule (injected deliveries get fresh sequence
numbers), so the guarantee is **identical delivery sets** — every
consumer receives exactly the same messages with the same arrival
times — rather than a byte-identical event log.
"""

from __future__ import annotations

import multiprocessing
from typing import Any

from repro.errors import ConfigurationError

#: Pipe message tags. Plain tuples keep the protocol fork/pickle-simple.
_EPOCH = "epoch"
_DONE = "done"
_STOP = "stop"

#: A frame on the wire: (arrival_time, destination, message).
Frame = tuple[float, str, Any]


def _node_inboxes(node: Any) -> set[str]:
    """Every inbox endpoint owned by one broker node."""
    return {
        node.dispatch_inbox,
        node.link_inbox,
        node.orphanage.inbox,
        node.broker.advertisement_inbox,
    }


def _validate(deployment: Any, workers: int) -> list[str]:
    cfg = deployment.config
    if not cfg.cluster_enabled:
        raise ConfigurationError(
            "run_multiprocess requires cluster_enabled=True"
        )
    if cfg.message_latency <= 0:
        raise ConfigurationError(
            "run_multiprocess needs message_latency > 0: the bus latency "
            "is the conservative lookahead between processes"
        )
    if cfg.store_enabled:
        raise ConfigurationError(
            "run_multiprocess does not support store_enabled (worker "
            "appends would land in per-process stores)"
        )
    if cfg.qos_ingress_rate is not None or cfg.qos_consumer_queue is not None:
        raise ConfigurationError(
            "run_multiprocess does not support QoS admission/delivery "
            "queues (their timers live in the pre-fork event queue)"
        )
    names = list(deployment.cluster.nodes)
    movable = names[1:]  # b0 wraps the historical single-broker services
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    if workers > len(movable):
        raise ConfigurationError(
            f"workers={workers} exceeds movable broker nodes "
            f"({len(movable)}: {', '.join(movable) or 'none'})"
        )
    return movable


def run_multiprocess(
    deployment: Any,
    duration: float,
    workers: int = 1,
) -> dict[str, Any]:
    """Advance a clustered deployment ``duration`` sim-seconds using
    worker processes for the non-primary broker nodes.

    Returns a small report: epochs executed, frames shipped per
    direction, and each worker's final ``events_processed``. Delivery
    sets (what every consumer received, with arrival times) match the
    single-process ``deployment.run(duration)`` on the same seed.
    """
    if duration < 0:
        raise ConfigurationError("duration must be non-negative")
    cfg = deployment.config
    movable = _validate(deployment, workers)
    sim = deployment.sim
    network = deployment.network
    latency = cfg.message_latency
    t_end = sim.now + duration

    # Round-robin node assignment: worker w owns movable[w::workers].
    assignment = [movable[rank::workers] for rank in range(workers)]
    inboxes_of_worker: list[set[str]] = []
    for node_names in assignment:
        owned: set[str] = set()
        for name in node_names:
            owned |= _node_inboxes(deployment.cluster.nodes[name])
        inboxes_of_worker.append(owned)
    owner_of_inbox: dict[str, int] = {}
    for rank, owned in enumerate(inboxes_of_worker):
        for inbox in owned:
            owner_of_inbox[inbox] = rank

    ctx = multiprocessing.get_context("fork")
    pipes = [ctx.Pipe() for _ in range(workers)]
    processes = [
        ctx.Process(
            target=_worker_main,
            args=(
                pipes[rank][1],
                deployment,
                assignment[rank],
                inboxes_of_worker[rank],
                t_end,
            ),
            daemon=True,
        )
        for rank in range(workers)
    ]
    for process in processes:
        process.start()
    conns = [parent_conn for parent_conn, _ in pipes]

    # -- parent-side routing -------------------------------------------
    # Rank 0 is the parent itself in the merge order; workers are 1..N.
    outbox: list[Frame] = []
    outbound = lambda arrival, dest, msg: outbox.append((arrival, dest, msg))  # noqa: E731
    remote_inboxes = frozenset(owner_of_inbox)
    for inbox in remote_inboxes:
        network.set_remote_route(inbox, outbound)

    # Build-time deliveries bound for shipped nodes predate the routes:
    # sweep them out and hand them to the owning workers as the first
    # epoch's frames.
    initial = network.extract_pending_for(remote_inboxes)
    pending_for: list[list[Frame]] = [[] for _ in range(workers)]
    frames_out = 0
    for frame in initial:
        pending_for[owner_of_inbox[frame[1]]].append(frame)
        frames_out += 1

    epochs = 0
    frames_in = 0
    worker_reports: list[dict[str, Any]] = [{} for _ in range(workers)]
    try:
        barrier = sim.now
        while True:
            in_flight = [
                frame for frames in pending_for for frame in frames
            ]
            if barrier >= t_end and not in_flight:
                break
            # Earliest actionable thing anywhere: local queues are
            # reported by each process; frames being injected this epoch
            # act at their arrival times.
            for rank, conn in enumerate(conns):
                conn.send((_EPOCH, barrier, pending_for[rank]))
                pending_for[rank] = []
            next_local = _run_parent_epoch(sim, barrier)
            t_min = min(
                [next_local]
                + [frame[0] for frame in in_flight]
                + [float("inf")]
            )
            merged: list[tuple[float, int, int, str, Any]] = []
            for index, (arrival, dest, msg) in enumerate(outbox):
                merged.append((arrival, 0, index, dest, msg))
            outbox.clear()
            for rank, conn in enumerate(conns):
                tag, worker_frames, worker_next = conn.recv()
                assert tag == _DONE
                t_min = min(t_min, worker_next)
                for index, (arrival, dest, msg) in enumerate(worker_frames):
                    merged.append((arrival, rank + 1, index, dest, msg))
            merged.sort(key=lambda item: item[:3])
            for arrival, _, _, dest, msg in merged:
                t_min = min(t_min, arrival)
                target = owner_of_inbox.get(dest)
                if target is None:
                    network.inject(arrival, dest, msg)
                    frames_in += 1
                else:
                    pending_for[target].append((arrival, dest, msg))
                    frames_out += 1
            epochs += 1
            if t_min == float("inf"):
                barrier = t_end
            else:
                # Strictly below t_min + L: nothing generated next epoch
                # can arrive at or before the barrier, so frames are
                # never late even with run()'s inclusive-until.
                barrier = min(t_end, max(barrier, t_min) + latency * 0.5)
    finally:
        for conn in conns:
            try:
                conn.send((_STOP,))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for rank, conn in enumerate(conns):
            try:
                if conn.poll(10.0):
                    worker_reports[rank] = conn.recv()
            except (EOFError, OSError):  # pragma: no cover
                worker_reports[rank] = {"error": "no final report"}
        for process in processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover
                process.terminate()
                process.join(timeout=5.0)
        network.clear_remote_routes()

    # The clock lands exactly on t_end, matching deployment.run().
    if sim.now < t_end:
        sim.run(until=t_end)
    return {
        "workers": workers,
        "assignment": {
            f"worker{rank}": list(names)
            for rank, names in enumerate(assignment)
        },
        "epochs": epochs,
        "frames_to_workers": frames_out,
        "frames_to_parent": frames_in,
        "worker_reports": worker_reports,
    }


def _run_parent_epoch(sim: Any, barrier: float) -> float:
    """Run the parent to ``barrier``; return its next pending event time."""
    sim.run(until=barrier)
    pending = sim.iter_pending()
    if not pending:
        return float("inf")
    return min(handle.time for handle in pending)


def _worker_main(
    conn: Any,
    deployment: Any,
    node_names: list[str],
    owned_inboxes: set[str],
    t_end: float,
) -> None:
    """Worker process body (entered via fork; nothing is pickled).

    The worker inherits the whole deployment image. Everything not
    owned by its assigned nodes is silenced: the inherited event queue
    is dropped wholesale (sensor sampling, timers and in-flight
    deliveries all replay in the parent — the worker only ever acts on
    injected frames) and every foreign inbox becomes a remote route
    back to the parent, which re-routes frames for sibling workers.
    """
    sim = deployment.sim
    network = deployment.network
    sim.clear_pending()
    outbox: list[Frame] = []
    outbound = lambda arrival, dest, msg: outbox.append((arrival, dest, msg))  # noqa: E731
    for inbox in network.inbox_names():
        if inbox not in owned_inboxes:
            network.set_remote_route(inbox, outbound)
    try:
        while True:
            request = conn.recv()
            if request[0] == _STOP:
                break
            _, barrier, frames = request
            for arrival, dest, msg in frames:
                network.inject(arrival, dest, msg)
            sim.run(until=barrier)
            pending = sim.iter_pending()
            next_time = (
                min(handle.time for handle in pending)
                if pending
                else float("inf")
            )
            conn.send((_DONE, outbox, next_time))
            outbox = []
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        pass
    else:
        conn.send(
            {
                "nodes": list(node_names),
                "events_processed": sim.events_processed,
                "now": sim.now,
                "dispatch_deliveries": sum(
                    deployment.cluster.nodes[name].dispatcher.stats.deliveries
                    for name in node_names
                ),
            }
        )
    finally:
        conn.close()
