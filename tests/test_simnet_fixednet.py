"""The fixed network: message bus and RPC fabric."""

import pytest

from repro.errors import ConfigurationError, RegistrationError
from repro.simnet.fixednet import FixedNetwork, RpcEndpoint
from repro.simnet.kernel import Simulator


class Adder(RpcEndpoint):
    def rpc_add(self, a, b):
        return a + b

    def rpc_fail(self):
        raise RuntimeError("boom")

    def not_an_rpc(self):  # pragma: no cover - existence is the test
        return "hidden"


class TestMessaging:
    def test_send_delivers_to_inbox(self, sim, network):
        received = []
        network.register_inbox("svc", received.append)
        network.send("svc", {"k": 1})
        sim.run()
        assert received == [{"k": 1}]

    def test_send_to_unknown_inbox_is_dropped(self, sim, network):
        network.send("ghost", "lost")
        sim.run()  # must not raise

    def test_deregistered_inbox_drops_in_flight(self, sim, network):
        received = []
        network.register_inbox("svc", received.append)
        network.send("svc", "msg")
        network.unregister_inbox("svc")
        sim.run()
        assert received == []

    def test_duplicate_inbox_rejected(self, network):
        network.register_inbox("svc", lambda m: None)
        with pytest.raises(RegistrationError):
            network.register_inbox("svc", lambda m: None)

    def test_message_latency_applied(self):
        sim = Simulator()
        network = FixedNetwork(sim, message_latency=0.25)
        times = []
        network.register_inbox("svc", lambda m: times.append(sim.now))
        network.send("svc", 1)
        sim.run()
        assert times == [0.25]

    def test_fifo_between_same_endpoints(self, sim, network):
        received = []
        network.register_inbox("svc", received.append)
        for i in range(10):
            network.send("svc", i)
        sim.run()
        assert received == list(range(10))

    def test_has_inbox(self, network):
        assert not network.has_inbox("svc")
        network.register_inbox("svc", lambda m: None)
        assert network.has_inbox("svc")

    def test_stats_count_messages(self, sim, network):
        network.register_inbox("svc", lambda m: None)
        network.send("svc", 1)
        network.send("svc", 2)
        assert network.stats.messages == 2


class TestRpc:
    def test_call_sync(self, network):
        network.register_service("math", Adder())
        assert network.call_sync("math", "add", 4, b=6) == 10

    def test_unknown_service_rejected_at_call_time(self, network):
        with pytest.raises(RegistrationError):
            network.call_sync("ghost", "op")

    def test_unknown_operation_raises(self, network):
        network.register_service("math", Adder())
        with pytest.raises(RegistrationError):
            network.call_sync("math", "subtract", 1, 2)

    def test_non_prefixed_methods_not_callable(self, network):
        network.register_service("math", Adder())
        with pytest.raises(RegistrationError):
            network.call_sync("math", "not_an_rpc")

    def test_service_exception_propagates(self, sim, network):
        network.register_service("math", Adder())
        with pytest.raises(RuntimeError):
            network.call_sync("math", "fail")

    def test_duplicate_service_rejected(self, network):
        network.register_service("math", Adder())
        with pytest.raises(RegistrationError):
            network.register_service("math", Adder())


def test_negative_latency_rejected(sim):
    with pytest.raises(ConfigurationError):
        FixedNetwork(sim, message_latency=-0.1)
