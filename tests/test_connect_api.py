"""One connect door per transport.

``Garnet.connect`` opens simulated sessions (name/token/permissions,
``heartbeat_period``, ``broker`` homing) and ``repro.transport.connect``
live ones (``timeout``, ``reconnect``, ``keepalive``).
These tests pin the split:

- neither door takes the other's options — the signature refuses them;
- a bad value is :class:`ConfigurationError`, a missing identity
  :class:`RegistrationError`, both before anything is dialed;
- everything past ``permissions`` is keyword-only.
"""

from __future__ import annotations

import pytest

from repro.core.config import GarnetConfig
from repro.core.middleware import Garnet
from repro.errors import ConfigurationError, RegistrationError, TransportError
from repro.transport import connect
from repro.util.backoff import BackoffPolicy

#: Nothing listens here: a connect that dialed would raise TransportError.
UNREACHABLE = "garnet://127.0.0.1:1"


def simulated(**config) -> Garnet:
    return Garnet(
        config=GarnetConfig(publish_location_stream=False, **config)
    )


class TestConnectOptionsValidation:
    """What each door accepts, checked before any I/O."""

    def test_name_alone_is_enough(self):
        deployment = simulated(session_heartbeat_period=2.0)
        session = deployment.connect("app")
        assert session.name == "app"
        # heartbeat_period not passed: the config decides; an explicit
        # None switches heartbeats off for this session.
        assert session._heartbeat_task is not None
        assert (
            deployment.connect("quiet", heartbeat_period=None)._heartbeat_task
            is None
        )

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"token": object()}, "token"),
            ({"permissions": object()}, "permissions"),
            ({"broker": "b0"}, "broker"),
            ({"heartbeat_period": 1.0}, "heartbeat_period"),
            ({"heartbeat_period": None}, "heartbeat_period"),
        ],
    )
    def test_url_rejects_simulated_only_options(self, kwargs, fragment):
        with pytest.raises(TypeError, match=fragment):
            connect(UNREACHABLE, "x", **kwargs)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"timeout": 3.0}, "timeout"),
            ({"reconnect": True}, "reconnect"),
            ({"keepalive": 1.0}, "keepalive"),
            ({"url": UNREACHABLE}, "url"),
            ({"options": object()}, "options"),
        ],
    )
    def test_simulated_rejects_live_only_options(self, kwargs, fragment):
        with pytest.raises(TypeError, match=fragment):
            simulated().connect("x", **kwargs)

    def test_url_without_name_is_a_registration_error(self):
        for name in (None, ""):
            with pytest.raises(RegistrationError):
                connect(UNREACHABLE, name)

    def test_live_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            connect(UNREACHABLE, "x", timeout=0.0)

    @pytest.mark.parametrize("keepalive", [0.0, -1.0])
    def test_live_keepalive_must_be_positive(self, keepalive):
        with pytest.raises(ConfigurationError, match="keepalive"):
            connect(UNREACHABLE, "x", keepalive=keepalive)

    @pytest.mark.parametrize("reconnect", [False, 3, "yes"])
    def test_live_reconnect_must_be_a_policy(self, reconnect):
        with pytest.raises(ConfigurationError, match="reconnect"):
            connect(UNREACHABLE, "x", reconnect=reconnect)

    def test_live_timeout_reconnect_and_keepalive_are_accepted(self):
        # A well-formed call gets as far as dialing the dead port.
        with pytest.raises(TransportError):
            connect(
                UNREACHABLE,
                "x",
                timeout=0.5,
                reconnect=BackoffPolicy(base=0.1),
                keepalive=0.5,
            )

    def test_refused_dial_is_a_transport_error_naming_the_broker(self):
        # Like every other broker failure, not a bare socket error.
        with pytest.raises(TransportError, match="127.0.0.1:1") as caught:
            connect(UNREACHABLE, "x", timeout=0.5)
        assert isinstance(caught.value.__cause__, ConnectionRefusedError)


class TestGarnetConnect:
    def test_connect_needs_name_or_token(self):
        deployment = simulated()
        with pytest.raises(RegistrationError):
            deployment.connect()

    def test_token_supplies_the_name(self):
        deployment = simulated()
        token = deployment.issue_token("principal")
        session = deployment.connect(token=token)
        assert session.name == "principal"

    def test_broker_without_cluster_is_a_configuration_error(self):
        deployment = simulated()
        with pytest.raises(ConfigurationError, match="cluster_enabled"):
            deployment.connect("app", broker="b0")


class TestLegacyPositionalShim:
    def test_too_many_positionals_is_a_type_error(self):
        # heartbeat_period/broker/url used to be accepted positionally
        # behind a DeprecationWarning; a fourth positional is now
        # rejected like any other surplus argument.
        deployment = simulated()
        with pytest.raises(TypeError, match="positional"):
            deployment.connect("app", None, None, 1.5)
        with pytest.raises(TypeError, match="positional"):
            deployment.connect(
                "app", None, None, None, None, None, "extra"
            )


class TestTransportAlias:
    def test_transport_connect_validates_before_dialing(self):
        # A missing name fails validation without touching the network
        # (the URL is unreachable; reaching it would raise OSError).
        with pytest.raises(RegistrationError):
            connect(UNREACHABLE)

    def test_transport_connect_rejects_bad_timeout(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            connect(UNREACHABLE, "app", timeout=-1.0)
