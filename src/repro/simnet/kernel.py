"""Deterministic discrete-event simulation kernel.

All of Garnet's services, sensors and networks run on one
:class:`Simulator`: a priority queue of timestamped events, a virtual
clock and a single seeded random number generator. Determinism matters
because every experiment in ``benchmarks/`` must be reproducible
bit-for-bit; any component needing randomness must draw it from
:attr:`Simulator.rng` (or a stream forked via :meth:`Simulator.fork_rng`).

Events scheduled for the same instant fire in scheduling order (a
monotonic tiebreaker guarantees FIFO semantics), so causality within a
timestep is preserved.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable
from typing import Any

from repro.errors import SchedulingError, SimulationError


class EventHandle:
    """A cancellable reference to a scheduled event; the queue holds
    ``(time, seq, handle)`` and ``seq`` is unique, so no handle is compared."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        owner: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            # Let the simulator track live tombstone counts (and compact
            # the heap when they dominate). The owner is detached once
            # the event leaves the queue, so late cancels of executed
            # events cannot skew the count.
            owner._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={self.time:.6f} {name} {state}>"


class Simulator:
    """Discrete-event simulator with a virtual clock.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator.

    Examples
    --------
    >>> sim = Simulator(seed=7)
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        # call_first() counts down from here, below every schedule()d seq.
        self._first_seq = 0
        self._running = False
        self._events_processed = 0
        self._cancelled = 0
        self.rng = random.Random(seed)
        self._seed = seed
        self._fork_count = 0
        self._probe: Any = None

    @property
    def probe(self) -> Any:
        """The installed kernel probe, if any (see :meth:`set_probe`)."""
        return self._probe

    def set_probe(self, probe: Any) -> None:
        """Install an observability probe (or None to remove it).

        A probe exposes ``on_schedule(handle, delay)``, called for every
        accepted event, and ``on_executed(handle, queue_depth)``, called
        after each callback runs. Probes observe only — they cannot alter
        event order, so determinism is unaffected.
        """
        if probe is not None and (
            not callable(getattr(probe, "on_schedule", None))
            or not callable(getattr(probe, "on_executed", None))
        ):
            raise SimulationError(
                "probe must expose on_schedule() and on_executed()"
            )
        self._probe = probe

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying queue slots as tombstones.

        Tombstones are dropped lazily: when one reaches the head of the
        queue, or wholesale when they outnumber live events (see
        :meth:`_note_cancelled`).
        """
        return self._cancelled

    def _note_cancelled(self) -> None:
        """Record one newly cancelled queued event; compact if warranted.

        Compaction rebuilds the heap without tombstones once they exceed
        half the queue (and are numerous enough to matter) — this keeps
        cancel-heavy workloads (ack timers, leases, retransmissions)
        from growing the queue without bound. The rebuild mutates
        ``self._queue`` in place because :meth:`run` holds a local
        reference to the list.
        """
        self._cancelled += 1
        queue = self._queue
        if self._cancelled > 64 and self._cancelled * 2 > len(queue):
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._cancelled = 0

    def iter_pending(self) -> list[EventHandle]:
        """Snapshot of the live (non-cancelled) queued events.

        Heap order, not execution order — callers needing execution
        order must sort on ``(time, seq)``. Used by process-migration
        sweeps (:meth:`FixedNetwork.extract_pending_for`) and debugging;
        not a hot path.
        """
        return [entry[2] for entry in self._queue if not entry[2].cancelled]

    def clear_pending(self) -> int:
        """Drop every queued event; returns how many were discarded.

        Only sensible on a freshly forked worker process that must not
        replay the parent's timeline (the multiprocess cluster bridge
        re-seeds the worker's queue with injected deliveries instead).
        """
        dropped = len(self._queue) - self._cancelled
        self._queue.clear()
        self._cancelled = 0
        return dropped

    def fork_rng(self) -> random.Random:
        """Return an independent RNG derived deterministically from the seed.

        Components that consume randomness at data-dependent rates (e.g.
        the wireless loss model) should take a forked stream so that adding
        one component does not perturb every other component's draws.
        """
        self._fork_count += 1
        return random.Random(f"{self._seed}/{self._fork_count}")

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        # Body duplicated from schedule_at: this wrapper is the kernel's
        # hottest entry point (nearly every event arrives through it) and
        # the extra call frame was measurable end-to-end. Keep the two
        # bodies in lockstep — the probe must observe time - now computed
        # exactly as schedule_at would.
        now = self._now
        time = now + delay
        if not callable(callback):
            raise SimulationError(f"callback {callback!r} is not callable")
        handle = EventHandle(time, self._seq, callback, args, self)
        heapq.heappush(self._queue, (time, self._seq, handle))
        self._seq += 1
        probe = self._probe
        if probe is not None:
            probe.on_schedule(handle, time - now)
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        if not callable(callback):
            raise SimulationError(f"callback {callback!r} is not callable")
        handle = EventHandle(time, self._seq, callback, args, self)
        heapq.heappush(self._queue, (time, self._seq, handle))
        self._seq += 1
        probe = self._probe
        if probe is not None:
            probe.on_schedule(handle, time - self._now)
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback`` at the current time, after pending same-time events."""
        return self.schedule_at(self._now, callback, *args)

    def call_first(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback`` now, ahead of every event due at this instant.

        For a callback that works through a list and is cut short by an
        exception: it queues the unprocessed rest here and re-raises, and
        :meth:`run` puts the instant's undispatched events back behind it,
        so the next ``run()`` resumes the list before anything that was
        due after it. Only a callback that then raises gets that order:
        otherwise the events the running batch already holds go first.
        """
        if not callable(callback):
            raise SimulationError(f"callback {callback!r} is not callable")
        seq = self._first_seq = self._first_seq - 1
        handle = EventHandle(self._now, seq, callback, args, self)
        heapq.heappush(self._queue, (self._now, seq, handle))
        probe = self._probe
        if probe is not None:
            probe.on_schedule(handle, 0.0)
        return handle

    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> int:
        """Run events until the queue drains, ``until`` passes, or the budget ends.

        Parameters
        ----------
        until:
            Stop once the next event is later than this virtual time; the
            clock is advanced to ``until`` on a timed stop.
        max_events:
            Stop after executing this many events (guards runaway loops).

        Returns
        -------
        int
            The number of events executed by this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        # Locals shave attribute lookups off the per-event cost; the
        # compaction in _note_cancelled mutates the queue list in place,
        # so this reference stays valid across callbacks that cancel.
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    break
                batch_time, _, head = queue[0]
                if head.cancelled:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                if until is not None and batch_time > until:
                    self._now = max(self._now, until)
                    break
                pop(queue)
                head.owner = None
                self._now = batch_time
                if not queue or queue[0][0] != batch_time:
                    # Fast path: a lone event at this instant — skip the
                    # batch list allocation entirely.
                    head.callback(*head.args)
                    executed += 1
                    self._events_processed += 1
                    probe = self._probe
                    if probe is not None:
                        probe.on_executed(head, len(queue))
                    continue
                # Batch path: drain the whole same-instant run in one heap
                # sweep, then dispatch. Tombstones drop during the drain;
                # cancel-inside-batch (an earlier callback cancelling a
                # later same-instant event) is honoured by re-checking the
                # cancelled flag at dispatch. Events a callback schedules
                # *at* batch_time land back on the heap with a higher seq
                # and are picked up by the next iteration, preserving FIFO
                # order exactly as the one-at-a-time kernel did.
                batch = [head]
                append = batch.append
                budget = None if max_events is None else max_events - executed
                while queue and queue[0][0] == batch_time:
                    if budget is not None and len(batch) >= budget:
                        break
                    nxt = pop(queue)[2]
                    nxt.owner = None
                    if nxt.cancelled:
                        self._cancelled -= 1
                        continue
                    append(nxt)
                remaining = len(batch)
                try:
                    for handle in batch:
                        remaining -= 1
                        if handle.cancelled:
                            continue
                        handle.callback(*handle.args)
                        executed += 1
                        self._events_processed += 1
                        probe = self._probe
                        if probe is not None:
                            # Report the depth the one-at-a-time kernel
                            # would have seen: heap plus the
                            # not-yet-dispatched tail of this batch.
                            probe.on_executed(handle, len(queue) + remaining)
                except BaseException:
                    # A callback raised: the undispatched tail goes back
                    # with its own (time, seq), so the next run() fires
                    # it in FIFO order, as the one-at-a-time kernel did.
                    self._requeue(batch[len(batch) - remaining :])
                    raise
            else:
                if until is not None:
                    self._now = max(self._now, until)
        finally:
            self._running = False
        return executed

    def _requeue(self, handles: list[EventHandle]) -> None:
        """Put popped, undispatched events back on the heap unchanged.

        An event cancelled while it sat in the batch is dropped here: it
        would only be a tombstone, and it was never counted as one.
        """
        queue = self._queue
        for handle in handles:
            if not handle.cancelled:
                handle.owner = self
                heapq.heappush(queue, (handle.time, handle.seq, handle))

    def step(self) -> bool:
        """Execute exactly one pending event. Returns False when idle."""
        return self.run(max_events=1) == 1


class PeriodicTask:
    """Re-schedules a callback at a fixed period until stopped.

    Used for sensor sampling loops, coordinator evaluation ticks and
    actuation retransmission timers.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        *,
        start_delay: float | None = None,
        jitter: float = 0.0,
    ) -> None:
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._jitter = jitter
        self._handle: EventHandle | None = None
        self._stopped = False
        first = period if start_delay is None else start_delay
        self._handle = sim.schedule(self._with_jitter(first), self._fire)

    @property
    def period(self) -> float:
        return self._period

    @period.setter
    def period(self, value: float) -> None:
        """Change the period; takes effect from the next (re)scheduling."""
        if value <= 0:
            raise SchedulingError(f"period must be positive, got {value}")
        self._period = value

    def _with_jitter(self, delay: float) -> float:
        if self._jitter <= 0:
            return delay
        return max(0.0, delay + self._sim.rng.uniform(-self._jitter, self._jitter))

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._handle = self._sim.schedule(
                self._with_jitter(self._period), self._fire
            )

    def stop(self) -> None:
        """Cancel any pending firing. Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
