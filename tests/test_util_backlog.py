"""Backlog: the bounded evict-oldest-and-count buffer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import Counter
from repro.util.backlog import Backlog


def test_full_backlog_evicts_oldest_and_counts():
    evicted = Counter("evicted")
    backlog = Backlog(3, evicted)
    for entry in range(5):
        backlog.append(entry)
    assert list(backlog) == [2, 3, 4]
    assert len(backlog) == 3
    assert evicted.value == 2


def test_capacity_zero_keeps_nothing_and_counts_nothing():
    evicted = Counter("evicted")
    backlog = Backlog(0, evicted)
    for entry in range(4):
        backlog.append(entry)
    assert list(backlog) == [] and len(backlog) == 0
    assert evicted.value == 0


def test_drain_returns_arrival_order_and_empties():
    backlog = Backlog(4, Counter("evicted"))
    for entry in "abcdef":
        backlog.append(entry)
    assert backlog.drain() == ["c", "d", "e", "f"]
    assert len(backlog) == 0 and backlog.drain() == []
    backlog.append("g")
    assert list(backlog) == ["g"]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(st.one_of(st.integers(0, 99), st.none()), max_size=40),
)
def test_every_append_is_held_evicted_or_drained(capacity, script):
    # ``None`` drains; an integer appends. Whatever the script, every
    # append is still held, was evicted or was drained, and a drain
    # hands back the newest appends in order.
    evicted = Counter("evicted")
    backlog = Backlog(capacity, evicted)
    appended, drained, kept = 0, 0, []
    for step in script:
        if step is None:
            taken = backlog.drain()
            assert taken == kept[len(kept) - len(taken):]
            drained += len(taken)
            kept = []
        else:
            backlog.append(step)
            appended += 1
            kept.append(step)
        assert len(backlog) <= capacity
    assert appended == len(backlog) + evicted.value + drained
