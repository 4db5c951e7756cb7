"""The one bounded hold-for-an-absent-consumer buffer.

Garnet keeps data for a consumer that is not there yet (the Orphanage,
§4.2), not draining (the quarantine), disconnected (a parked live
session) or about to take over a stream (the cluster's handoff replay).
Every one of them holds arrivals oldest-first up to a bound, and when
full evicts the oldest and counts it: an eviction is data loss, and the
count is how an operator sees it. :class:`Backlog` is that policy, once.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from typing import Generic, TypeVar

from repro.obs.registry import Counter

T = TypeVar("T")


class Backlog(Generic[T]):
    """A FIFO of at most ``capacity`` entries; full evicts the oldest.

    Each eviction increments ``evicted``, a counter its owner passes in
    under the name its subsystem reports. Capacity 0 keeps nothing and
    counts nothing: the owner only wanted to look at the entries.
    """

    __slots__ = ("_entries", "_capacity", "_evicted")

    def __init__(self, capacity: int, evicted: Counter) -> None:
        self._entries: deque[T] = deque(maxlen=capacity)
        self._capacity = capacity
        self._evicted = evicted

    def append(self, entry: T) -> None:
        if len(self._entries) == self._capacity:
            if not self._capacity:
                return
            self._evicted.inc()
        self._entries.append(entry)

    def drain(self) -> list[T]:
        """Every entry in arrival order; the backlog is empty after."""
        entries = list(self._entries)
        self._entries.clear()
        return entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[T]:
        return iter(self._entries)
