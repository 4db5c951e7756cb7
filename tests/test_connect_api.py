"""The consolidated connect() entrypoint (repro.core.connect).

Three historical shapes — in-simulation default, ``broker=`` cluster
homing, and ``url=`` live transport — now normalise into one validated
:class:`ConnectOptions`. These tests pin the consolidation contract:

- the same option combination fails identically through every door
  (``Garnet.connect``, ``repro.transport.connect``, a prebuilt
  ``options=`` object);
- contradictory combinations are :class:`ConfigurationError`; a missing
  identity stays :class:`RegistrationError`;
- everything past ``permissions`` is keyword-only (the positional
  heartbeat_period/broker/url shim is gone).
"""

from __future__ import annotations

import pytest

from repro.core.config import GarnetConfig
from repro.core.connect import USE_CONFIG, ConnectOptions
from repro.core.middleware import Garnet
from repro.errors import ConfigurationError, RegistrationError


def simulated() -> Garnet:
    return Garnet(config=GarnetConfig(publish_location_stream=False))


class TestConnectOptionsValidation:
    def test_defaults_need_an_identity(self):
        with pytest.raises(RegistrationError):
            ConnectOptions().validate()

    def test_name_alone_is_enough(self):
        options = ConnectOptions(name="app").validate()
        assert options.live is False
        assert options.heartbeat_period is USE_CONFIG

    def test_url_without_name_is_a_registration_error(self):
        with pytest.raises(RegistrationError):
            ConnectOptions(url="garnet://h:1").validate()

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
        with pytest.raises(ConfigurationError, match=fragment):
            ConnectOptions(
                name="x", url="garnet://h:1", **kwargs
            ).validate()

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"checksum": False}, "checksum"),
            ({"timeout": 3.0}, "timeout"),
        ],
    )
    def test_simulated_rejects_live_only_options(self, kwargs, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            ConnectOptions(name="x", **kwargs).validate()

    def test_live_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            ConnectOptions(
                name="x", url="garnet://h:1", timeout=0.0
            ).validate()

    def test_live_checksum_and_timeout_are_accepted(self):
        options = ConnectOptions(
            name="x", url="garnet://h:1", checksum=False, timeout=2.0
        ).validate()
        assert options.live is True


class TestGarnetConnect:
    def test_options_object_and_keywords_are_equivalent(self):
        deployment = simulated()
        via_options = deployment.connect(options=ConnectOptions(name="a"))
        via_keywords = deployment.connect("b")
        assert type(via_options) is type(via_keywords)
        assert via_options.name == "a"

    def test_options_cannot_mix_with_keywords(self):
        deployment = simulated()
        with pytest.raises(ConfigurationError, match="options"):
            deployment.connect("x", options=ConnectOptions(name="x"))

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

    def test_live_only_knobs_rejected_without_url(self):
        deployment = simulated()
        with pytest.raises(ConfigurationError, match="timeout"):
            deployment.connect("app", timeout=3.0)
        with pytest.raises(ConfigurationError, match="checksum"):
            deployment.connect("app", checksum=False)

    def test_url_with_simulated_only_kwarg_is_rejected_without_io(self):
        # Validation fires before any socket is opened, so a bad combo
        # against an unreachable URL still fails as ConfigurationError.
        deployment = simulated()
        with pytest.raises(ConfigurationError):
            deployment.connect(
                "x", url="garnet://127.0.0.1:1", broker="b0"
            )


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
        from repro.transport import connect

        # A missing name fails validation without touching the network
        # (the URL is unreachable; reaching it would raise OSError).
        with pytest.raises(RegistrationError):
            connect("garnet://127.0.0.1:1")

    def test_transport_connect_rejects_bad_timeout(self):
        from repro.transport import connect

        with pytest.raises(ConfigurationError, match="timeout"):
            connect("garnet://127.0.0.1:1", "app", timeout=-1.0)
