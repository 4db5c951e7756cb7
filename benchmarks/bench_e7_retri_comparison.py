"""E7 — RETRI ephemeral identifiers vs Garnet's persistent stream ids.

Paper artefacts reproduced (Section 7): "Their RETRI technique reduces
the cost of data transmission by using fewer bits to identify a
transaction, instead of the larger pre-defined sensor and stream
identifier header fields used in our message format. Their approach
scales with the increasing transaction density and not the sheer size of
the network. ... because Garnet depends on unique consistent stream IDs,
the ephemeral nature of the RETRI identifier renders their technique
inappropriate."

The sweep reports, per transaction density: RETRI's required id width
(for a 1% collision target), identification energy per transaction for
both schemes under the first-order radio model, and Monte-Carlo collision
rates validating the sizing. Expected shape: RETRI wins on bits/energy at
every realistic density, its width grows with density while Garnet's is
flat — and a functional check shows why Garnet still cannot adopt it
(ephemeral ids cannot name a long-lived stream consistently).
"""

import functools
import random

from repro.baselines.retri import (
    GARNET_ID_BITS,
    RetriScheme,
    collision_probability,
    garnet_transaction_cost,
    minimum_id_bits,
    retri_transaction_cost,
)

from claims import Table, documents, print_table

DENSITIES = [2, 8, 32, 128, 512, 2048, 8192]
PAYLOAD_BITS = 64
DISTANCE = 50.0


@functools.cache
def cost_sweep() -> list[dict]:
    rows = []
    garnet = garnet_transaction_cost(PAYLOAD_BITS, DISTANCE)
    for density in DENSITIES:
        retri = retri_transaction_cost(density, PAYLOAD_BITS, DISTANCE)
        rows.append(
            {
                "density": density,
                "retri_bits": retri.id_bits,
                "garnet_bits": garnet.id_bits,
                "retri_energy": retri.energy_joules,
                "garnet_energy": garnet.energy_joules,
                "savings": 1.0 - retri.energy_joules / garnet.energy_joules,
            }
        )
    return rows


@documents("E7")
def cost_table() -> Table:
    return Table(
        "E7: identification overhead per transaction (Section 7)",
        [
            "density",
            "RETRI bits",
            "Garnet bits",
            "RETRI µJ",
            "Garnet µJ",
            "saving",
        ],
        [
            [
                r["density"],
                r["retri_bits"],
                r["garnet_bits"],
                r["retri_energy"] * 1e6,
                r["garnet_energy"] * 1e6,
                f"{r['savings']:.0%}",
            ]
            for r in cost_sweep()
        ],
    )


def test_identifier_cost_sweep():
    cost_table().show()
    rows = cost_sweep()
    # Shape 1: RETRI scales with density, not network size.
    widths = [r["retri_bits"] for r in rows]
    assert widths == sorted(widths)
    assert widths[0] < widths[-1]
    # Shape 2: Garnet's cost is flat at 48 bits regardless of density.
    assert all(r["garnet_bits"] == GARNET_ID_BITS for r in rows)
    # Shape 3: RETRI is cheaper at every swept density (the energy
    # argument the paper concedes), with the saving shrinking as density
    # grows.
    assert all(r["savings"] > 0 for r in rows)
    assert rows[0]["savings"] > rows[-1]["savings"]


def test_monte_carlo_validates_sizing():
    """Observed collision rates stay under the 1% design target."""
    results = []
    for density in (8, 64, 512):
        bits = minimum_id_bits(density, 0.01)
        scheme = RetriScheme(bits, random.Random(density))
        for _ in range(400):
            held = [scheme.begin_transaction() for _ in range(density)]
            for identifier in held:
                scheme.end_transaction(identifier)
        results.append(
            {
                "density": density,
                "bits": bits,
                "predicted": collision_probability(density, bits),
                "observed_per_draw": scheme.observed_collision_rate(),
            }
        )
    print_table(
        "E7b: Monte-Carlo collision validation",
        ["density", "bits", "predicted P(any)", "observed/draw"],
        [
            [r["density"], r["bits"], r["predicted"], r["observed_per_draw"]]
            for r in results
        ],
    )
    for r in results:
        # Per-draw collision rate is bounded by the any-collision target.
        assert r["observed_per_draw"] <= 0.01


def test_ephemeral_ids_cannot_name_streams():
    """The paper's verdict: Garnet needs *consistent* stream ids.

    A RETRI id is released after each transaction; two samples from the
    same physical stream routinely carry different identifiers, so a
    subscription keyed on the first id misses the rest of the stream.
    """

    scheme = RetriScheme(id_bits=10, rng=random.Random(3))
    ids = []
    for _ in range(200):
        identifier = scheme.begin_transaction()
        ids.append(identifier)
        scheme.end_transaction(identifier)
    distinct = len(set(ids))
    print_table(
        "E7c: identifier stability over one stream's 200 messages",
        ["scheme", "distinct ids", "stable?"],
        [
            ["garnet StreamID", 1, "yes"],
            ["RETRI", distinct, "no"],
        ],
    )
    # The same stream shows up under many identifiers — useless as a
    # subscription key.
    assert distinct > 100
