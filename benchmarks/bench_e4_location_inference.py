"""E4 — inferred location accuracy vs receiver density and hints.

Paper artefacts reproduced (Section 5): location is *inferred* from
reception data ("such information was required without the active
involvement of the sensors") and refined by consumer-supplied hints
("a consumer may be able to infer, or otherwise acquire knowledge of,
the location of a sensor which is not itself location-aware").

The sweep deploys a mobile transmit-only sensor, varies the receiver
grid density, and toggles application hints. Reported: mean/median
position error of the Location Service's estimate against ground truth.
Expected shape: error falls with receiver density, and hints beat any
radio-only configuration.
"""

import functools

from repro.core.config import GarnetConfig
from repro.core.middleware import Garnet
from repro.core.resource import StreamConfig
from repro.core.envelopes import LocationHint
from repro.core.location import HINT_INBOX
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Rect
from repro.simnet.kernel import PeriodicTask
from repro.simnet.mobility import RandomWaypoint

from claims import Table, documents

CODEC = SampleCodec(0.0, 100.0)
AREA = Rect(0.0, 0.0, 800.0, 800.0)
DURATION = 300.0


def run_cell(grid: int, hints: bool, seed: int = 21) -> dict:
    config = GarnetConfig(
        area=AREA,
        receiver_rows=grid,
        receiver_cols=grid,
        receiver_overlap=1.8,
        loss_model=None,
        location_decay_tau=20.0,
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type("m", {}, actuatable=False)
    mobility = RandomWaypoint(
        AREA,
        deployment.sim.fork_rng(),
        speed_min=3.0,
        speed_max=8.0,
        pause=2.0,
    )
    node = deployment.add_sensor(
        "m",
        [
            SensorStreamSpec(
                0, ConstantSampler(1.0), CODEC,
                config=StreamConfig(rate=1.0), kind="e4",
            )
        ],
        mobility=mobility,
        receive_capable=False,
    )

    errors: list[float] = []

    def probe():
        estimate = deployment.location.try_estimate(node.sensor_id)
        if estimate is not None:
            errors.append(estimate.position.distance_to(node.position))

    PeriodicTask(deployment.sim, 5.0, probe, start_delay=10.0)

    if hints:
        # An application that knows the deployment plan hints a noisy but
        # tight position every 10 s (e.g. it tracks the asset carrying
        # the sensor).
        hint_rng = deployment.sim.fork_rng()

        def send_hint():
            actual = node.position
            deployment.network.send(
                HINT_INBOX,
                LocationHint(
                    sensor_id=node.sensor_id,
                    x=actual.x + hint_rng.gauss(0.0, 8.0),
                    y=actual.y + hint_rng.gauss(0.0, 8.0),
                    confidence_radius=15.0,
                    supplied_by="bench",
                    supplied_at=deployment.sim.now,
                ),
            )

        PeriodicTask(deployment.sim, 5.0, send_hint, start_delay=2.5)

    deployment.run(DURATION)
    errors.sort()
    return {
        "grid": f"{grid}×{grid}",
        "hints": "yes" if hints else "no",
        "mean_error": sum(errors) / len(errors),
        "median_error": errors[len(errors) // 2],
        "samples": len(errors),
    }


@functools.cache
def density_sweep() -> list[dict]:
    cells = [run_cell(grid, hints=False) for grid in (2, 3, 5)]
    cells.append(run_cell(3, hints=True))
    return cells


@documents("E4")
def density_table() -> Table:
    return Table(
        "E4: location inference error (Section 5)",
        ["receivers", "hints", "mean err (m)", "median err (m)", "probes"],
        [
            [
                c["grid"],
                c["hints"],
                c["mean_error"],
                c["median_error"],
                c["samples"],
            ]
            for c in density_sweep()
        ],
    )


def test_density_and_hint_sweep():
    density_table().show()
    cells = density_sweep()
    radio_only = {c["grid"]: c for c in cells if c["hints"] == "no"}
    hinted = next(c for c in cells if c["hints"] == "yes")
    # Shape 1: denser receiver grids localise better.
    assert radio_only["5×5"]["mean_error"] < radio_only["2×2"]["mean_error"]
    # Shape 2: application hints substantially refine the same grid —
    # the Section 5 argument for accepting hints instead of burdening
    # every sensor with positioning hardware.
    assert hinted["mean_error"] < 0.8 * radio_only["3×3"]["mean_error"]
