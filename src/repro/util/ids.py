"""Identifier allocation utilities.

Garnet identifies sensors with 24-bit ids, internal streams with 8-bit
indices and stream update requests with short wrapping counters (the paper
compares these ephemeral request ids to RETRI transaction identifiers,
Section 7). Two allocators cover those needs, and one window reads the
16-bit sequences back:

- :class:`IdPool` hands out unique ids from a bounded space and supports
  release/reuse (sensor ids, consumer ids).
- :class:`WrappingCounter` produces modular sequence numbers (message
  sequence fields, actuation request ids).
- :class:`SequenceWindow` is the one per-stream duplicate filter over
  those sequences (filtering, cluster routers, the store tap, history
  replay, the handoff buffer and the live client).
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from itertools import compress

from repro.errors import GarnetError


class IdExhaustedError(GarnetError):
    """Raised when an :class:`IdPool` has no free ids left."""


class IdPool:
    """Allocate unique integer ids in ``[first, last]`` with reuse.

    Allocation is O(1): a monotonically advancing cursor serves fresh ids
    until the range is exhausted, after which released ids are recycled in
    LIFO order.
    """

    def __init__(self, first: int = 0, last: int = (1 << 24) - 1) -> None:
        if first < 0 or last < first:
            raise ValueError(f"invalid id range [{first}, {last}]")
        self._first = first
        self._last = last
        self._next = first
        # LIFO recycling order lives in the list; membership lives in the
        # set. reserve() removes from the set only (O(1)) and allocate()
        # skips list entries no longer in the set — without this, a churn
        # of release/reserve cycles pays list.remove's O(n) each time,
        # O(n^2) overall.
        self._released: list[int] = []
        self._released_set: set[int] = set()
        self._in_use: set[int] = set()

    @property
    def capacity(self) -> int:
        """Total number of ids the pool can ever hold concurrently."""
        return self._last - self._first + 1

    @property
    def in_use(self) -> int:
        """Number of ids currently allocated."""
        return len(self._in_use)

    def _pop_released(self) -> int | None:
        """The most recently released id still free, or None."""
        while self._released:
            value = self._released.pop()
            if value in self._released_set:
                self._released_set.remove(value)
                return value
            # Stale entry: the id was reserve()d since release; skip it.
        return None

    def allocate(self) -> int:
        """Return a fresh id, recycling released ids once the range is spent."""
        value = self._pop_released()
        if value is None:
            if self._next <= self._last:
                value = self._next
                self._next += 1
            else:
                raise IdExhaustedError(
                    f"id pool [{self._first}, {self._last}] exhausted"
                )
        self._in_use.add(value)
        return value

    def reserve(self, value: int) -> int:
        """Claim a specific id (e.g. a pre-configured sensor id). O(1)."""
        if value < self._first or value > self._last:
            raise ValueError(
                f"id {value} outside pool range [{self._first}, {self._last}]"
            )
        if value in self._in_use:
            raise IdExhaustedError(f"id {value} already allocated")
        if value >= self._next:
            # Mark everything skipped over as released so it is not lost.
            skipped = range(self._next, value)
            self._released.extend(skipped)
            self._released_set.update(skipped)
            self._next = value + 1
        else:
            if value not in self._released_set:
                raise IdExhaustedError(f"id {value} already allocated")
            # Lazy deletion: the list entry is skipped by _pop_released.
            self._released_set.remove(value)
        self._in_use.add(value)
        return value

    def release(self, value: int) -> None:
        """Return an id to the pool for reuse."""
        try:
            self._in_use.remove(value)
        except KeyError as exc:
            raise ValueError(f"id {value} is not allocated") from exc
        self._released.append(value)
        self._released_set.add(value)

    def __contains__(self, value: int) -> bool:
        return value in self._in_use


class WrappingCounter:
    """A modular counter over ``bits`` unsigned bits.

    ``next()`` returns the current value then advances, wrapping to zero
    after ``2**bits - 1`` — exactly the behaviour of the 16-bit sequence
    field in Figure 2.
    """

    def __init__(self, bits: int, start: int = 0) -> None:
        if bits <= 0:
            raise ValueError("bits must be positive")
        self._modulus = 1 << bits
        if not 0 <= start < self._modulus:
            raise ValueError(f"start {start} outside [0, {self._modulus})")
        self._value = start

    @property
    def modulus(self) -> int:
        return self._modulus

    @property
    def value(self) -> int:
        """The value the next call to :meth:`next` will return."""
        return self._value

    def next(self) -> int:
        value = self._value
        self._value = (self._value + 1) % self._modulus
        return value

    def distance_to(self, other: int) -> int:
        """Forward distance from the current value to ``other`` (mod 2^bits)."""
        return (other - self._value) % self._modulus


def sequence_is_newer(candidate: int, reference: int, bits: int = 16) -> bool:
    """Serial-number arithmetic (RFC 1982 style) for wrapping sequences.

    Returns True when ``candidate`` is ahead of ``reference`` by less than
    half the sequence space — the standard rule for deciding whether a
    wrapped sequence number is "new" rather than a stale duplicate.
    """
    modulus = 1 << bits
    half = modulus // 2
    diff = (candidate - reference) % modulus
    return 0 < diff < half


#: The Figure 2 sequence field: 16 bits, wrapping.
SEQUENCE_BITS = 16
_SEQUENCE_MASK = (1 << SEQUENCE_BITS) - 1
_HALF_SPACE = 1 << (SEQUENCE_BITS - 1)

#: Window size, in positions, of every per-stream dedupe.
SEQUENCE_WINDOW = 1024


class Verdict(Enum):
    """What :meth:`SequenceWindow.add` made of a sequence.

    Truthy when the sequence is accepted (``NEW`` or ``LATE``), so
    ``if not window.add(sequence)`` reads as "drop".
    """

    NEW = "new"
    """Ahead of the newest accepted sequence."""
    LATE = "late"
    """Behind the newest, inside the window, never accepted before."""
    DUPLICATE = "duplicate"
    """Inside the window and already accepted."""
    STALE = "stale"
    """The window's size or more positions behind the newest."""

    def __bool__(self) -> bool:
        # Module globals: a class attribute lookup would triple the cost.
        return self is NEW or self is LATE


NEW, LATE, DUPLICATE, STALE = Verdict


class SequenceWindow:
    """A positional anti-replay window over one stream's sequences.

    The scheme of RFC 4303 §3.4.3 and RFC 6479: a ``size``-bit map over
    the positions ``(newest - size, newest]``, where bit *k* is set once
    the sequence *k* behind the newest has been accepted. Whether a
    sequence is ahead of or behind the newest is serial-number
    arithmetic (:func:`sequence_is_newer`), so the window rides through
    the 16-bit wrap; memory is ``size`` bits whatever the traffic.

    The policy is the same for every caller: a sequence ``size`` or more
    positions behind the newest is stale and rejected like a duplicate,
    since the window no longer knows whether it was seen. ``newest`` is
    the newest accepted sequence (None before the first); read it, do
    not assign it.
    """

    __slots__ = ("newest", "_size", "_mask", "_bits")

    def __init__(self, size: int) -> None:
        if not 1 <= size < _HALF_SPACE:
            raise ValueError(f"window must be in [1, {_HALF_SPACE - 1}]")
        self._size = size
        self._mask = (1 << size) - 1
        self._bits = 0
        self.newest: int | None = None

    def add(self, sequence: int) -> Verdict:
        """Classify ``sequence``, recording it when it is accepted."""
        newest = self.newest
        if newest is None:
            self.newest = sequence
            self._bits = 1
            return NEW
        ahead = (sequence - newest) & _SEQUENCE_MASK
        if 0 < ahead < _HALF_SPACE:
            self.newest = sequence
            if ahead < self._size:
                self._bits = ((self._bits << ahead) | 1) & self._mask
            else:
                self._bits = 1
            return NEW
        behind = (newest - sequence) & _SEQUENCE_MASK
        if behind >= self._size:
            return STALE
        bit = 1 << behind
        if self._bits & bit:
            return DUPLICATE
        self._bits |= bit
        return LATE

    def keep(self, sequences: Sequence[int], *columns: Sequence) -> tuple:
        """:meth:`add` over ``sequences``, oldest first, in one call:
        ``(columns, refused)``, each column less its items at the places
        ``add`` refuses (given back as passed when it refuses none). The
        window is left as ``add`` per item leaves it."""
        kept = [True] * len(sequences)
        newest, bits, size, mask = self.newest, self._bits, self._size, self._mask
        for index, sequence in enumerate(sequences):
            if newest is None:
                newest, bits = sequence, 1
                continue
            ahead = (sequence - newest) & _SEQUENCE_MASK
            if 0 < ahead < _HALF_SPACE:
                newest = sequence
                bits = ((bits << ahead) | 1) & mask if ahead < size else 1
                continue
            behind = (newest - sequence) & _SEQUENCE_MASK
            if behind >= size or bits & (1 << behind):
                kept[index] = False
            else:
                bits |= 1 << behind
        self.newest, self._bits = newest, bits
        refused = kept.count(False)
        if not refused:
            return columns, 0
        return [list(compress(each, kept)) for each in columns], refused
