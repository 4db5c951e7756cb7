"""Fixed-network resilience: dead letters, retries, partitions, latency."""

import pytest

from repro.errors import ConfigurationError
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.kernel import Simulator
from repro.util.backoff import BackoffPolicy


@pytest.fixture
def latent_network():
    sim = Simulator(seed=3)
    return sim, FixedNetwork(sim, message_latency=0.001)


class TestDeadLetter:
    def test_send_to_missing_endpoint_dead_letters(self, latent_network):
        sim, network = latent_network
        letters = []
        network.set_dead_letter(
            lambda dest, message, reason: letters.append(
                (dest, message, reason)
            )
        )
        network.send("nobody.home", "payload")
        sim.run()
        assert letters == [("nobody.home", "payload", "no inbox")]
        assert network.stats.dead_lettered == 1
        assert network.stats.dropped == 1

    def test_dead_letter_metric_in_registry(self, latent_network):
        sim, network = latent_network
        network.send("gone", 1)
        sim.run()
        snapshot = network.stats.registry.snapshot()
        assert snapshot["counters"]["fixednet.dead_lettered"] == 1.0

    def test_deregistered_endpoint_routes_to_dead_letter(
        self, latent_network
    ):
        sim, network = latent_network
        received, letters = [], []
        network.set_dead_letter(lambda *args: letters.append(args))
        network.register_inbox("ephemeral", received.append)
        network.send("ephemeral", "a")
        sim.run()
        network.unregister_inbox("ephemeral")
        network.send("ephemeral", "b")
        sim.run()
        assert received == ["a"]
        assert [letter[1] for letter in letters] == ["b"]

    def test_no_hook_still_counts(self, latent_network):
        sim, network = latent_network
        network.send("void", object())
        sim.run()
        assert network.stats.dead_lettered == 1

    def test_raising_hook_is_isolated_and_counted(self, latent_network):
        # A broken dead-letter observer must not abort the delivery path
        # that invoked it — every message still dead-letters normally and
        # each hook failure is counted.
        sim, network = latent_network

        def broken_hook(dest, message, reason):
            raise RuntimeError("observer bug")

        network.set_dead_letter(broken_hook)
        network.send("gone.1", "a")
        network.send("gone.2", "b")
        sim.run()
        assert network.stats.dead_lettered == 2
        assert network.stats.dead_letter_errors == 2

    def test_raising_hook_does_not_break_retry_drain(self, latent_network):
        # Regression: with retries configured, the hook fires from the
        # retry-queue drain; an exception there used to be able to abort
        # the scheduled callback mid-event.
        sim, network = latent_network
        network.set_retry_policy(
            BackoffPolicy(base=0.1, multiplier=1.0, max_attempts=2)
        )

        def broken_hook(dest, message, reason):
            raise RuntimeError("observer bug")

        network.set_dead_letter(broken_hook)
        received = []
        network.send("never.there", "x")
        network.send("late.riser", "y")
        sim.schedule(
            0.15, lambda: network.register_inbox("late.riser", received.append)
        )
        sim.run()
        # The doomed message dead-lettered (hook isolated); the late
        # riser's retries still ran to redelivery.
        assert network.stats.dead_lettered == 1
        assert network.stats.dead_letter_errors == 1
        assert received == ["y"]


class TestRetry:
    def test_retry_redelivers_after_endpoint_returns(self, latent_network):
        sim, network = latent_network
        network.set_retry_policy(
            BackoffPolicy(base=0.5, multiplier=2.0, max_attempts=5)
        )
        received = []
        network.send("late.riser", "hello")
        # Endpoint appears 1 second in: the first delivery and first
        # retry miss, a later one lands.
        sim.schedule(
            1.0, lambda: network.register_inbox("late.riser", received.append)
        )
        sim.run()
        assert len(received) == 1
        assert network.stats.dead_lettered == 0
        registry = network.stats.registry.snapshot()["counters"]
        assert registry["resilience.fixednet_retries"] >= 1.0
        assert registry["resilience.fixednet_redelivered"] == 1.0

    def test_exhausted_retries_dead_letter_with_reason(self, latent_network):
        sim, network = latent_network
        network.set_retry_policy(
            BackoffPolicy(base=0.1, multiplier=1.0, max_attempts=2)
        )
        letters = []
        network.set_dead_letter(lambda *args: letters.append(args))
        network.send("never.there", "x")
        sim.run()
        assert len(letters) == 1
        assert letters[0][2] == "no inbox after 2 retries"

    def test_retry_jitter_uses_forked_rng(self):
        # Two identically-seeded sims with jittered retries retire the
        # message at identical times: the jitter draws are reproducible.
        def run_once():
            sim = Simulator(seed=11)
            network = FixedNetwork(
                sim,
                message_latency=0.001,
                retry_policy=BackoffPolicy(
                    base=0.2, multiplier=2.0, jitter=0.5, max_attempts=3
                ),
            )
            network.send("absent", 1)
            sim.run()
            return sim.now

        assert run_once() == run_once()


class TestPartition:
    def test_partitioned_endpoint_drops(self, latent_network):
        sim, network = latent_network
        received, letters = [], []
        network.register_inbox("island", received.append)
        network.set_dead_letter(lambda *args: letters.append(args))
        network.partition(["island"])
        assert network.is_partitioned("island")
        network.send("island", "lost")
        sim.run()
        assert received == []
        assert letters[0][2] == "partitioned"

    def test_heal_restores_delivery(self, latent_network):
        sim, network = latent_network
        received = []
        network.register_inbox("island", received.append)
        network.partition(["island"])
        network.heal()
        network.send("island", "found")
        sim.run()
        assert received == ["found"]

    def test_partition_with_retry_survives_until_heal(self, latent_network):
        sim, network = latent_network
        network.set_retry_policy(
            BackoffPolicy(base=0.5, multiplier=2.0, max_attempts=6)
        )
        received = []
        network.register_inbox("island", received.append)
        network.partition(["island"])
        network.send("island", "patient")
        sim.schedule(2.0, network.heal)
        sim.run()
        assert received == ["patient"]


class TestLatencyFactor:
    def test_latency_spike_slows_delivery(self, latent_network):
        sim, network = latent_network
        arrivals = []
        network.register_inbox("slow", lambda m: arrivals.append(sim.now))
        network.set_latency_factor(10.0)
        network.send("slow", 1)
        sim.run()
        assert arrivals == [pytest.approx(0.01)]
        network.set_latency_factor(1.0)
        network.send("slow", 2)
        sim.run()
        assert arrivals[1] == pytest.approx(sim.now)

    def test_factor_must_be_positive(self, latent_network):
        _, network = latent_network
        with pytest.raises(ConfigurationError):
            network.set_latency_factor(0.0)
