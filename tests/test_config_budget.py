"""GarnetConfig stays small, and every field on it is a live knob.

A field nobody ever sets only re-states a default its service
constructor already holds; each one still widens what the cross-flag
tests and the journey benchmark would have to cover. This pins the
field count and requires that every remaining field is set by the
program itself (library, benchmarks or examples), so a dead knob cannot
come back unnoticed. A field only tests set is a knob no root uses: a
test that needs another value builds the owning service directly.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro.core.config import GarnetConfig

ROOT = Path(__file__).resolve().parent.parent
FIELD_BUDGET = 42
#: Where a setter counts: not ``tests/``. config.py declares the fields,
#: so it cannot satisfy the search by accident.
SEARCHED = ("src", "benchmarks", "examples")
#: Fields that stay although no root sets them, each with its reason.
EXEMPT = {
    # A credential: every real deployment must be able to replace it,
    # whether or not a bench or example does.
    "deployment_secret",
}
DECLARATION = ROOT / "src" / "repro" / "core" / "config.py"


def _sources() -> str:
    return "\n".join(
        path.read_text()
        for directory in SEARCHED
        for path in sorted((ROOT / directory).rglob("*.py"))
        if path != DECLARATION
    )


def test_field_count_within_budget():
    assert len(dataclasses.fields(GarnetConfig)) <= FIELD_BUDGET


def test_every_field_is_set_somewhere():
    # ``name=value`` as a keyword argument or ``"name": value`` in an
    # overrides dict; ``==`` comparisons do not count.
    matches = re.findall(
        r"\b(\w+)\s*=(?!=)|[\"'](\w+)[\"']\s*:", _sources()
    )
    assigned = {name for pair in matches for name in pair}
    unset = [
        field.name
        for field in dataclasses.fields(GarnetConfig)
        if field.name not in assigned | EXEMPT
    ]
    assert not unset, (
        "GarnetConfig fields no caller sets (make them constants of "
        f"their service, or delete them): {unset}"
    )
