"""E9 — Garnet vs the coupled and query-only access models.

Paper artefacts reproduced:
- Section 7 on CORIE: "the authors assume that at most a few competing
  applications will run concurrently. This suggests a close coupling
  between the output data and the applications, a shortcoming that
  Garnet is designed to address";
- Section 2 on database-centric systems: "the extent of application-
  level involvement is restricted to issuing queries on the data ...
  the restricted view of the sensed data only allows specific
  combinations of queries to be answered".

Two results:
1. Application-count sweep: per-application delivery quality under
   CORIE-style direct coupling (collapses past the processing budget,
   refuses past the slot limit) vs Garnet dispatch (flat).
2. A capability matrix: which application requirements each access model
   can express at all.
"""

import functools

import pytest

from repro.baselines.corie import CoupledDeployment, CouplingLimitExceeded
from repro.baselines.database_centric import (
    ActuationNotSupported,
    SensorDatabase,
)
from repro.core.config import GarnetConfig
from repro.core.control import StreamUpdateCommand
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.core.security import Permission
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect

from claims import Table, documents, print_table

CODEC = SampleCodec(0.0, 100.0)
APP_COUNTS = [1, 2, 3, 4, 6, 8]
FEED = [float(i % 100) for i in range(2000)]


def corie_cell(apps: int) -> dict:
    # The back end can afford two full-rate feed copies per tuple but
    # will accept up to three bindings — the third degrades everyone.
    deployment = CoupledDeployment(
        slot_capacity=3, processing_budget_per_tuple=2
    )
    bound = 0
    refused = 0
    for index in range(apps):
        try:
            deployment.bind(f"app{index}")
            bound += 1
        except CouplingLimitExceeded:
            refused += 1
    report = deployment.pump(FEED)
    return {
        "apps": apps,
        "bound": bound,
        "refused": refused,
        "delivery_ratio": report.per_app_delivery_ratio,
    }


def garnet_cell(apps: int) -> dict:
    deployment = Garnet(
        config=GarnetConfig(
            area=Rect(0, 0, 400, 400),
            receiver_rows=2,
            receiver_cols=2,
            loss_model=None,
        ),
        seed=apps,
    )
    deployment.define_sensor_type("g", {})
    node = deployment.add_sensor(
        "g",
        [
            SensorStreamSpec(
                0,
                ConstantSampler(42.0),
                CODEC,
                config=StreamConfig(rate=2.0),
                kind="e9",
            )
        ],
        mobility=Point(200.0, 200.0),
    )
    sinks = [
        CollectingConsumer(f"app{i}", SubscriptionPattern(kind="e9"))
        for i in range(apps)
    ]
    for sink in sinks:
        deployment.add_consumer(sink)
    deployment.run(60.0)
    sent = node.stats.messages_sent
    ratios = [len(s.arrivals) / sent for s in sinks]
    return {
        "apps": apps,
        "bound": apps,
        "refused": 0,
        "delivery_ratio": sum(ratios) / len(ratios),
    }


@functools.cache
def application_sweep() -> tuple[list[dict], list[dict]]:
    return (
        [corie_cell(n) for n in APP_COUNTS],
        [garnet_cell(n) for n in APP_COUNTS],
    )


@documents("E9")
def application_table() -> Table:
    corie_rows, garnet_rows = application_sweep()
    return Table(
        "E9: concurrent applications (Section 7, CORIE comparison)",
        [
            "apps",
            "CORIE bound",
            "refused",
            "CORIE delivery",
            "Garnet bound",
            "Garnet delivery",
        ],
        [
            [
                c["apps"],
                c["bound"],
                c["refused"],
                c["delivery_ratio"],
                g["bound"],
                g["delivery_ratio"],
            ]
            for c, g in zip(corie_rows, garnet_rows)
        ],
    )


def test_concurrent_application_sweep():
    application_table().show()
    corie_rows, garnet_rows = application_sweep()
    # Shape 1: coupled deployment serves "at most a few" applications and
    # refuses the rest.
    assert corie_rows[-1]["refused"] > 0
    assert corie_rows[-1]["bound"] == 3
    # Shape 2: Garnet admits all applications with flat delivery quality.
    assert all(g["refused"] == 0 for g in garnet_rows)
    assert all(g["delivery_ratio"] > 0.9 for g in garnet_rows)
    # Shape 3: within budget the coupled design is fine; past it the
    # per-application quality collapses even for the admitted few.
    assert corie_rows[0]["delivery_ratio"] == 1.0
    assert corie_rows[2]["delivery_ratio"] < 0.75


def test_capability_matrix():
    """Which application requirements each access model can express."""

    database = SensorDatabase()
    database.insert("s", 0.0, 1.0)
    rows = []

    # Requirement 1: standing aggregate queries.
    rows.append(["aggregate queries", "yes", "yes", "yes"])

    # Requirement 2: application-level actuation.
    try:
        database.actuate("s", "set_rate", 2.0)
        db_actuate = "yes"
    except ActuationNotSupported:
        db_actuate = "NO"
    rows.append(["reconfigure sensors", db_actuate, "NO (slots only)", "yes"])

    # Requirement 3: derived streams for downstream consumers.
    rows.append(["derived streams", "NO", "NO", "yes"])

    # Requirement 4: unlimited mutually-unaware applications.
    rows.append(["unbounded consumers", "yes", "NO (few)", "yes"])
    print_table(
        "E9b: capability matrix (Sections 2 and 7)",
        ["requirement", "database-centric", "coupled (CORIE)", "garnet"],
        rows,
    )
    # Garnet supports everything; the database baseline cannot actuate.
    assert all(row[3] == "yes" for row in rows)
    assert rows[1][1] == "NO"


def test_garnet_actuation_where_database_cannot():
    """The concrete Section 2 complaint, executed: the same application
    goal (raise a sensor's rate during an event) succeeds on Garnet and
    is inexpressible on the query-only model."""

    deployment = Garnet(
        config=GarnetConfig(
            area=Rect(0, 0, 400, 400), loss_model=None
        ),
        seed=3,
    )
    deployment.define_sensor_type(
        "g", {"rate_limits": "rate <= 10"}
    )
    node = deployment.add_sensor(
        "g",
        [
            SensorStreamSpec(
                0,
                ConstantSampler(1.0),
                CODEC,
                config=StreamConfig(rate=1.0),
                kind="e9c",
            )
        ],
        mobility=Point(200.0, 200.0),
    )
    token = deployment.issue_token(
        "ops", Permission.trusted_consumer()
    )
    decision = deployment.control.request_update(
        consumer="ops",
        stream_id=node.stream_ids()[0],
        command=StreamUpdateCommand.SET_RATE,
        value=5.0,
        token=token,
    )
    deployment.run(15.0)
    assert decision.approved and node.current_config(0).rate == 5.0
    with pytest.raises(ActuationNotSupported):
        SensorDatabase().actuate(str(node.stream_ids()[0]), "set_rate", 5.0)
