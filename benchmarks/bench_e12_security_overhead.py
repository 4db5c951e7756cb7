"""E12 — opaque payloads and end-to-end encryption overhead.

Paper artefacts reproduced: Section 4.3 ("the payload field is not
interpreted and is opaque to the Garnet infrastructure. This provides a
basic level of security") and Section 9 ("a high-level abstraction of
data streams supporting end-to-end encryption").

Measured:
1. the byte overhead of the payload cipher across payload sizes;
2. a pipeline equivalence check — an encrypted deployment produces the
   same message count and sequence pattern as a plaintext one, i.e. the
   middleware's behaviour is provably independent of payload contents;
3. token verification (every broker operation pays it).
"""

import functools

import pytest

from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.core.security import AuthService, PayloadCipher, Permission
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect

from claims import Table, documents

CODEC = SampleCodec(0.0, 100.0)
KEY = b"e12-benchmark-key-material"


@pytest.mark.parametrize("size", [16, 256, 4096])
def test_encrypt_adds_nonce_and_tag(size):
    blob = PayloadCipher(KEY).encrypt(b"\xa5" * size)
    assert len(blob) == size + 16  # nonce + tag


@pytest.mark.parametrize("size", [16, 256, 4096])
def test_decrypt_roundtrip(size):
    cipher = PayloadCipher(KEY)
    blob = cipher.encrypt(b"\xa5" * size)
    assert cipher.decrypt(blob) == b"\xa5" * size


def test_token_verification():
    auth = AuthService(b"bench-secret")
    token = auth.issue("app", Permission.standard_consumer())
    auth.require(token, Permission.SUBSCRIBE)


@functools.cache
def run_pipeline(encrypted: bool) -> dict:
    deployment = Garnet(
        config=GarnetConfig(
            area=Rect(0, 0, 400, 400),
            receiver_rows=2,
            receiver_cols=2,
            loss_model=None,
        ),
        seed=99,  # identical seed for both runs
    )
    deployment.define_sensor_type("g", {})
    deployment.add_sensor(
        "g",
        [
            SensorStreamSpec(
                0,
                ConstantSampler(42.0),
                CODEC,
                config=StreamConfig(rate=2.0),
                kind="e12",
            )
        ],
        mobility=Point(200.0, 200.0),
        cipher=PayloadCipher(KEY) if encrypted else None,
    )
    sink = CollectingConsumer("sink", SubscriptionPattern(kind="e12"))
    deployment.add_consumer(sink)
    deployment.run(60.0)
    return {
        "encrypted": encrypted,
        "delivered": len(sink.arrivals),
        "sequences": [a.message.sequence for a in sink.arrivals],
        "duplicates": deployment.summary()["filtering.duplicates"],
        "payload_bytes": (
            len(sink.arrivals[0].message.payload) if sink.arrivals else 0
        ),
        "arrivals": sink.arrivals,
    }


@documents("E12")
def pipeline_table() -> Table:
    return Table(
        "E12: plaintext vs encrypted pipeline (same seed)",
        ["pipeline", "delivered", "dups filtered", "payload bytes"],
        [
            [
                "encrypted" if r["encrypted"] else "plaintext",
                r["delivered"],
                int(r["duplicates"]),
                r["payload_bytes"],
            ]
            for r in (run_pipeline(False), run_pipeline(True))
        ],
    )


def test_pipeline_is_payload_blind():
    """Every middleware-visible behaviour is identical with and without
    encryption — the operational meaning of 'opaque payload'."""
    pipeline_table().show()
    plain, secret = run_pipeline(False), run_pipeline(True)
    assert plain["delivered"] == secret["delivered"]
    assert plain["sequences"] == secret["sequences"]
    # The only observable difference is the cipher's fixed 16-byte
    # framing (nonce + tag) on the payload.
    assert secret["payload_bytes"] == plain["payload_bytes"] + 16
    # And the encrypted payloads really are unreadable ciphertext with
    # the flag set.
    for arrival in list(secret["arrivals"])[:5]:
        assert arrival.message.encrypted
    reader = PayloadCipher(KEY)
    decoded = CODEC.decode(
        reader.decrypt(secret["arrivals"][0].message.payload)
    )
    assert abs(decoded.value - 42.0) <= CODEC.quantisation_error(16)
