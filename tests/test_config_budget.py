"""GarnetConfig stays small, and every field on it is a live knob.

A field nobody ever sets only re-states a default its service
constructor already holds; each one still widens what the cross-flag
tests and the journey benchmark would have to cover. This pins the
field count and requires that every remaining field is set somewhere in
the tree, so a dead knob cannot come back unnoticed.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro.core.config import GarnetConfig

ROOT = Path(__file__).resolve().parent.parent
FIELD_BUDGET = 60
#: Where a setter counts. config.py declares the fields and this file
#: names none of them, so neither can satisfy the search by accident.
SEARCHED = ("src", "benchmarks", "examples", "tests")
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
        if field.name not in assigned
    ]
    assert not unset, (
        "GarnetConfig fields no caller sets (make them constants of "
        f"their service, or delete them): {unset}"
    )
