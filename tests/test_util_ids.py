"""Identifier pools, wrapping counters and serial-number arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.ids import (
    IdExhaustedError,
    IdPool,
    SequenceWindow,
    Verdict,
    WrappingCounter,
    sequence_is_newer,
)


class TestIdPool:
    def test_allocates_unique_ids(self):
        pool = IdPool(0, 99)
        ids = {pool.allocate() for _ in range(100)}
        assert len(ids) == 100
        assert ids == set(range(100))

    def test_exhaustion(self):
        pool = IdPool(0, 2)
        for _ in range(3):
            pool.allocate()
        with pytest.raises(IdExhaustedError):
            pool.allocate()

    def test_release_enables_reuse(self):
        pool = IdPool(0, 1)
        first = pool.allocate()
        pool.allocate()
        pool.release(first)
        assert pool.allocate() == first

    def test_release_unallocated_rejected(self):
        pool = IdPool(0, 10)
        with pytest.raises(ValueError):
            pool.release(5)

    def test_reserve_specific_id(self):
        pool = IdPool(0, 10)
        assert pool.reserve(7) == 7
        assert 7 in pool
        # Fresh allocations skip the reserved id.
        allocated = {pool.allocate() for _ in range(10)}
        assert 7 not in allocated

    def test_reserve_duplicate_rejected(self):
        pool = IdPool(0, 10)
        pool.reserve(3)
        with pytest.raises(IdExhaustedError):
            pool.reserve(3)

    def test_reserve_out_of_range_rejected(self):
        pool = IdPool(5, 10)
        with pytest.raises(ValueError):
            pool.reserve(11)
        with pytest.raises(ValueError):
            pool.reserve(4)

    def test_reserve_already_allocated_rejected(self):
        pool = IdPool(0, 10)
        value = pool.allocate()
        with pytest.raises(IdExhaustedError):
            pool.reserve(value)

    def test_capacity_and_in_use(self):
        pool = IdPool(10, 19)
        assert pool.capacity == 10
        pool.allocate()
        pool.allocate()
        assert pool.in_use == 2

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            IdPool(5, 4)
        with pytest.raises(ValueError):
            IdPool(-1, 4)

    def test_garnet_sensor_space(self):
        # The 24-bit sensor id space of the paper: 16.7M ids.
        pool = IdPool()
        assert pool.capacity == 16_777_216

    def test_allocate_release_reserve_round_trip(self):
        pool = IdPool(0, 9)
        value = pool.allocate()
        pool.release(value)
        # A released id can be re-claimed explicitly...
        assert pool.reserve(value) == value
        with pytest.raises(IdExhaustedError):
            pool.reserve(value)
        # ...and released and recycled again.
        pool.release(value)
        assert pool.allocate() == value

    def test_reserved_released_id_not_allocated_twice(self):
        # reserve() must fully remove the id from the free pool: a later
        # allocate() may not hand out the same id again.
        pool = IdPool(0, 2)
        a = pool.allocate()
        pool.allocate()
        pool.release(a)
        pool.reserve(a)
        assert pool.allocate() == 2
        with pytest.raises(IdExhaustedError):
            pool.allocate()

    def test_reserve_ahead_keeps_skipped_ids(self):
        pool = IdPool(0, 5)
        pool.reserve(3)  # 0, 1, 2 skipped but not lost
        allocated = {pool.allocate() for _ in range(5)}
        assert allocated == {0, 1, 2, 4, 5}
        with pytest.raises(IdExhaustedError):
            pool.allocate()

    def test_skipped_then_reserved_id_stays_unique(self):
        pool = IdPool(0, 5)
        pool.reserve(4)        # 0-3 enter the free list
        pool.reserve(2)        # claim one of the skipped ids directly
        allocated = [pool.allocate() for _ in range(4)]
        assert sorted(allocated) == [0, 1, 3, 5]
        assert pool.in_use == 6

    def test_release_reserve_churn_stays_consistent(self):
        # The regression scenario for the old O(n) reserve(): heavy
        # release/reserve cycling. Correctness check — every id handed
        # out is unique and accounted for.
        pool = IdPool(0, 99)
        held = [pool.allocate() for _ in range(100)]
        for _ in range(50):
            for value in held[:20]:
                pool.release(value)
            for value in held[:20]:
                pool.reserve(value)
        assert pool.in_use == 100
        with pytest.raises(IdExhaustedError):
            pool.allocate()


class TestWrappingCounter:
    def test_counts_and_wraps(self):
        counter = WrappingCounter(2)
        assert [counter.next() for _ in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_sixteen_bit_wrap(self):
        counter = WrappingCounter(16, start=65534)
        assert counter.next() == 65534
        assert counter.next() == 65535
        assert counter.next() == 0

    def test_start_validation(self):
        with pytest.raises(ValueError):
            WrappingCounter(4, start=16)
        with pytest.raises(ValueError):
            WrappingCounter(0)

    def test_distance(self):
        counter = WrappingCounter(8, start=250)
        assert counter.distance_to(3) == 9
        assert counter.distance_to(250) == 0


class TestSequenceIsNewer:
    def test_simple_ordering(self):
        assert sequence_is_newer(5, 4)
        assert not sequence_is_newer(4, 5)
        assert not sequence_is_newer(4, 4)

    def test_wraparound(self):
        assert sequence_is_newer(2, 65530)
        assert not sequence_is_newer(65530, 2)

    def test_half_space_boundary(self):
        # Exactly half the space apart is ambiguous: treated as not newer.
        assert not sequence_is_newer(0x8000, 0)

    @given(st.integers(0, 65535), st.integers(1, 0x7FFF))
    def test_advancing_is_always_newer(self, base, step):
        assert sequence_is_newer((base + step) % 65536, base)

    @given(st.integers(0, 65535), st.integers(1, 0x7FFF))
    def test_antisymmetry(self, base, step):
        ahead = (base + step) % 65536
        assert not sequence_is_newer(base, ahead)


class UnboundedWindow:
    """The window's specification with nothing forgotten: every unwrapped
    position ever accepted, and the stale rule."""

    def __init__(self, size):
        self.size = size
        self.newest = None  # unwrapped
        self.seen = set()

    def add(self, sequence):
        if self.newest is None:
            self.newest = sequence
            self.seen.add(sequence)
            return Verdict.NEW
        diff = (sequence - self.newest) % 65536
        position = self.newest + diff if diff < 0x8000 else (
            self.newest - (65536 - diff)
        )
        if position > self.newest:
            self.newest = position
            verdict = Verdict.NEW
        elif self.newest - position >= self.size:
            return Verdict.STALE
        elif position in self.seen:
            return Verdict.DUPLICATE
        else:
            verdict = Verdict.LATE
        self.seen.add(position)
        return verdict


#: Each step names a sequence relative to the model's newest: a short
#: advance, a jump of up to half the space, a straggler or repeat behind
#: the newest, one at the window's edge, or one already sent.
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("ahead"), st.integers(1, 3)),
        st.tuples(
            st.just("jump"),
            st.one_of(st.integers(4, 0x8000), st.sampled_from([0x7FFF, 0x8000])),
        ),
        st.tuples(st.just("behind"), st.integers(0, 80)),
        st.tuples(st.just("edge"), st.integers(-1, 1)),
        st.tuples(st.just("again"), st.integers(0, 1 << 16)),
    ),
    max_size=60,
)


class TestSequenceWindow:
    def test_size_is_checked_once_here(self):
        for size in (0, 1 << 15):
            with pytest.raises(ValueError):
                SequenceWindow(size)
        assert SequenceWindow((1 << 15) - 1).newest is None

    def test_verdicts_are_truthy_when_accepted(self):
        assert [bool(verdict) for verdict in Verdict] == [
            True, True, False, False,
        ]

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        size=st.one_of(st.integers(1, 64), st.sampled_from([1024, 0x7FFF])),
        start=st.one_of(st.integers(65536 - 40, 65535), st.integers(0, 65535)),
        steps=STEPS,
    )
    def test_matches_the_unbounded_model(self, size, start, steps):
        window, model = SequenceWindow(size), UnboundedWindow(size)
        sent = [start]
        assert window.add(start) is model.add(start) is Verdict.NEW
        for kind, amount in steps:
            newest = model.newest % 65536
            if kind == "ahead" or kind == "jump":
                sequence = (newest + amount) % 65536
            elif kind == "behind":
                sequence = (newest - amount) % 65536
            elif kind == "edge":
                sequence = (newest - size - amount) % 65536
            else:
                sequence = sent[amount % len(sent)]
            sent.append(sequence)
            assert window.add(sequence) is model.add(sequence), sequence
            assert window.newest == model.newest % 65536

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        size=st.one_of(st.integers(1, 64), st.sampled_from([1024, 0x7FFF])),
        start=st.one_of(st.integers(65536 - 40, 65535), st.integers(0, 65535)),
        steps=STEPS,
        cuts=st.lists(st.integers(1, 8), min_size=1, max_size=20),
    )
    def test_a_run_is_its_items_one_by_one(self, size, start, steps, cuts):
        """``keep`` against ``add`` per item, over runs that wrap past
        0xFFFF, repeat, straggle and fall behind the window: the same
        items kept, and the same window after every run."""
        sequences, newest = [start], start
        for kind, amount in steps:
            if kind == "ahead" or kind == "jump":
                sequence = (newest + amount) % 65536
            elif kind == "behind":
                sequence = (newest - amount) % 65536
            elif kind == "edge":
                sequence = (newest - size - amount) % 65536
            else:
                sequence = sequences[amount % len(sequences)]
            sequences.append(sequence)
            if sequence_is_newer(sequence, newest):
                newest = sequence
        by_run, by_item = SequenceWindow(size), SequenceWindow(size)
        assert by_run.keep([], []) == (([],), 0)
        for cut in cuts * len(sequences):
            run, sequences = sequences[:cut], sequences[cut:]
            labels = [f"item {index}" for index in range(len(run))]
            verdicts = [by_item.add(s) for s in run]
            kept = [label for label, ok in zip(labels, verdicts) if ok]
            (got,), refused = by_run.keep(run, labels)
            assert (got, refused) == (kept, len(run) - len(kept))
            assert (by_run.newest, by_run._bits) == (by_item.newest, by_item._bits)
            if not sequences:
                break
