"""The discrete-event kernel: ordering, cancellation, periodic tasks."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.simnet.kernel import PeriodicTask, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_same_time_events_fire_fifo(self, sim):
        fired = []
        for tag in range(10):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == list(range(10))

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_non_callable_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(1.0, "not callable")

    def test_cancel_prevents_firing(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_events_can_schedule_events(self, sim):
        fired = []

        def cascade(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(1.0, cascade, depth + 1)

        sim.schedule(1.0, cascade, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_call_soon_runs_after_pending_same_time(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, "first")
        sim.call_soon(fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]


class TestRun:
    def test_run_until_stops_and_advances_clock(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        executed = sim.run(until=2.0)
        assert executed == 1
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_with_empty_queue_advances_clock(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events_budget(self, sim):
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending_events == 6

    def test_step(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        assert sim.step() is True
        assert sim.step() is False
        assert fired == [1]

    def test_run_not_reentrant(self, sim):
        def evil():
            sim.run()

        sim.schedule(1.0, evil)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = Simulator(seed=99)
        b = Simulator(seed=99)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    def test_forked_rngs_are_independent_and_deterministic(self):
        a = Simulator(seed=5)
        b = Simulator(seed=5)
        fork_a1, fork_a2 = a.fork_rng(), a.fork_rng()
        fork_b1 = b.fork_rng()
        assert fork_a1.random() == fork_b1.random()
        assert fork_a1.random() != fork_a2.random()


class TestPeriodicTask:
    def test_fires_at_period(self, sim):
        times = []
        PeriodicTask(sim, 2.0, lambda: times.append(sim.now))
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_start_delay(self, sim):
        times = []
        PeriodicTask(sim, 2.0, lambda: times.append(sim.now), start_delay=0.5)
        sim.run(until=5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_stop(self, sim):
        times = []
        task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        sim.schedule(2.5, task.stop)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_period_change_applies_to_next_cycle(self, sim):
        times = []
        task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        def speed_up():
            task.period = 0.5
        sim.schedule(2.1, speed_up)
        sim.run(until=4.0)
        assert times == [1.0, 2.0, 3.0, 3.5, 4.0]

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(SchedulingError):
            PeriodicTask(sim, 0.0, lambda: None)
        task = PeriodicTask(sim, 1.0, lambda: None)
        with pytest.raises(SchedulingError):
            task.period = -1.0

    def test_stop_from_within_callback(self, sim):
        count = [0]

        def once():
            count[0] += 1
            task.stop()

        task = PeriodicTask(sim, 1.0, once)
        sim.run(until=10.0)
        assert count[0] == 1


class TestTombstoneCompaction:
    def test_mass_cancellation_does_not_grow_queue_unbounded(self, sim):
        handles = [
            sim.schedule(float(i + 1), lambda: None) for i in range(10_000)
        ]
        for handle in handles:
            handle.cancel()
        # Every event is cancelled: none are live, and compaction must
        # have reclaimed almost all the tombstone slots (the heap may
        # keep a sub-threshold residue).
        assert sim.pending_events == 0
        assert sim.cancelled_pending == len(sim._queue)
        assert len(sim._queue) < 200
        assert sim.run() == 0

    def test_interleaved_cancellation_preserves_order(self, sim):
        fired = []
        handles = [
            sim.schedule(float(i + 1), fired.append, i) for i in range(1_000)
        ]
        for i, handle in enumerate(handles):
            if i % 3 != 0:
                handle.cancel()
        sim.run()
        assert fired == [i for i in range(1_000) if i % 3 == 0]
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 0

    def test_pending_events_counts_live_only(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        doomed = sim.schedule(2.0, lambda: None)
        doomed.cancel()
        assert sim.pending_events == 1
        assert sim.cancelled_pending == 1
        keep.cancel()
        assert sim.pending_events == 0

    def test_cancel_after_execution_does_not_drift_counts(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # late cancel of an already-fired event
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 0

    def test_cancel_remains_idempotent_for_counting(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.cancelled_pending == 1

    def test_cancel_from_callback_during_run(self, sim):
        fired = []
        later = [sim.schedule(2.0 + i, fired.append, i) for i in range(200)]

        def cancel_most():
            for handle in later[10:]:
                handle.cancel()

        sim.schedule(1.0, cancel_most)
        sim.run()
        assert fired == list(range(10))
        assert sim.pending_events == 0


class TestBatchDequeue:
    """Same-timestamp events are drained and dispatched as one batch."""

    @pytest.fixture
    def sim(self):
        return Simulator(seed=0)

    def test_same_timestamp_fifo_order_preserved(self, sim):
        fired = []
        for i in range(50):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(50))
        assert sim.now == 1.0

    def test_interleaved_timestamps_keep_global_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a1")
        sim.schedule(1.0, fired.append, "a2")
        sim.schedule(1.5, fired.append, "b")
        sim.run()
        assert fired == ["a1", "a2", "b", "c"]

    def test_schedule_at_batch_time_runs_after_batch(self, sim):
        fired = []

        def first():
            fired.append("first")
            # call_soon at the batch timestamp must run after the whole
            # already-queued batch, exactly as the one-at-a-time kernel.
            sim.call_soon(fired.append, "spawned")

        sim.schedule(1.0, first)
        sim.schedule(1.0, fired.append, "second")
        sim.schedule(1.0, fired.append, "third")
        sim.run()
        assert fired == ["first", "second", "third", "spawned"]

    def test_cancel_inside_batch_skips_later_member(self, sim):
        fired = []
        victim = None

        def assassin():
            fired.append("assassin")
            victim.cancel()

        sim.schedule(1.0, assassin)
        victim = sim.schedule(1.0, fired.append, "victim")
        sim.schedule(1.0, fired.append, "survivor")
        sim.run()
        assert fired == ["assassin", "survivor"]
        assert sim.events_processed == 2
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 0

    def test_cancel_inside_batch_is_idempotent_and_late_safe(self, sim):
        fired = []
        handle = None

        def canceller():
            handle.cancel()
            handle.cancel()

        sim.schedule(1.0, canceller)
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        assert fired == []
        # Cancel of an already-drained batch member must not corrupt the
        # tombstone count (the handle had left the queue).
        assert sim.cancelled_pending == 0
        handle.cancel()
        assert sim.cancelled_pending == 0

    def test_10k_same_tick_stress(self, sim):
        fired = []
        for i in range(10_000):
            sim.schedule(5.0, fired.append, i)
        executed = sim.run()
        assert executed == 10_000
        assert fired == list(range(10_000))
        assert sim.now == 5.0
        assert sim.pending_events == 0

    def test_max_events_budget_respected_mid_batch(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        assert sim.run(max_events=4) == 4
        assert fired == [0, 1, 2, 3]
        assert sim.pending_events == 6
        assert sim.run() == 6
        assert fired == list(range(10))

    def test_step_executes_exactly_one_of_a_batch(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert fired == ["a", "b"]
        assert sim.step() is False

    def test_probe_depth_matches_one_at_a_time_kernel(self, sim):
        class Probe:
            def __init__(self):
                self.depths = []

            def on_schedule(self, handle, delay):
                pass

            def on_executed(self, handle, depth):
                self.depths.append(depth)

        probe = Probe()
        sim.set_probe(probe)
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        # One-at-a-time kernel depths: 4, 3, 2, 1 (the t=2 event still
        # queued), then 0 after the final pop.
        assert probe.depths == [4, 3, 2, 1, 0]

    def test_until_stops_at_batch_boundary(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")
        sim.schedule(2.0, fired.append, "c")
        sim.run(until=1.5)
        assert fired == ["a", "b"]
        assert sim.now == 1.5

    def test_raising_callback_keeps_the_rest_of_its_instant(self, sim):
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, fired.append, "a")
        sim.schedule(1.0, boom)
        sim.schedule(1.0, fired.append, "c")
        sim.schedule(2.0, fired.append, "d")
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["a"]
        assert sim.pending_events == 2
        sim.run()
        assert fired == ["a", "c", "d"]

    def test_raising_lone_event_loses_nothing(self, sim):
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, fired.append, "d")
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert fired == ["d"]

    def test_requeued_tail_keeps_fifo_and_cancels(self, sim):
        fired = []
        victim = None

        def boom():
            victim.cancel()
            sim.call_soon(fired.append, "spawned")
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        victim = sim.schedule(1.0, fired.append, "victim")
        tail = sim.schedule(1.0, fired.append, "tail")
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.pending_events == 2
        assert sim.cancelled_pending == 0
        tail.cancel()  # back on the heap, so counted as a tombstone
        assert sim.cancelled_pending == 1
        sim.run()
        assert fired == ["spawned"]
        assert sim.pending_events == 0

    def test_call_first_then_raise_resumes_ahead_of_the_instant(self, sim):
        fired = []

        def interrupted():
            fired.append("first half")
            sim.call_first(fired.append, "second half")
            raise RuntimeError("boom")

        sim.schedule(0.5, fired.append, "earlier")
        sim.schedule(1.0, interrupted)
        sim.schedule(1.0, fired.append, "next")
        with pytest.raises(RuntimeError):
            sim.run()
        sim.call_soon(fired.append, "later")
        sim.run()
        assert fired == ["earlier", "first half", "second half", "next", "later"]
