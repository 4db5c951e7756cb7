"""EXPERIMENTS.md stays truthful: every number in the tables of E1–E15
and A1–A4 is what the experiment behind the table returns.

Each benchmark module registers the experiment that fills its section's
table (``claims.documents``), and the table is checked against the rows
that experiment hands to ``print_table``:

- every documented column is one of the experiment's columns; a column
  named ``(wall-clock)`` depends on the host and is not compared;
- the documented rows appear among the returned rows, in order (a table
  may show a subset of the sweep);
- a number matches when the printed value, rounded half-up to the digits
  the document shows, equals it (``,`` ``+`` ``%`` ``×`` and the
  typographic minus are presentation); any other cell compares as text.

The experiments are memoised, so in a tier-1 run this check and the
claim tests under ``benchmarks/`` share one run of each.
"""

import importlib
import re
import sys
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
DOC = (ROOT / "EXPERIMENTS.md").read_text()
CLAIMS = [f"E{n}" for n in range(1, 16)] + [f"A{n}" for n in range(1, 5)]
WALL_CLOCK = "(wall-clock)"

sys.path.insert(0, str(BENCHMARKS))
for path in sorted(BENCHMARKS.glob("bench_*.py")):
    number = re.fullmatch(r"bench_e(\d+)_.*", path.stem)
    if path.stem == "bench_ablations" or (number and int(number[1]) <= 15):
        importlib.import_module(path.stem)
from claims import DOCUMENTED, format_cell  # noqa: E402


def _documented_table(section: str) -> tuple[list[str], list[list[str]]]:
    """The first table under ``## <section> `` / ``### <section> ``."""
    lines = DOC.splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if re.match(rf"#+ {section} ", line)
    )
    table = []
    for line in lines[start + 1:]:
        if line.startswith("#") or (table and not line.startswith("|")):
            break
        if line.startswith("|"):
            table.append([cell.strip() for cell in line.strip("|").split("|")])
    assert table, f"{section} has no table"
    return table[0], table[2:]


def _number(text: str) -> Decimal | None:
    text = text.replace("−", "-").replace(",", "").removeprefix("+")
    try:
        return Decimal(text.rstrip("%×"))
    except InvalidOperation:
        return None


def _same(documented: str, value) -> bool:
    shown = format_cell(value)
    expected = _number(documented)
    if expected is None:
        return documented == shown
    measured = _number(shown)
    return measured is not None and expected == measured.quantize(
        expected, rounding=ROUND_HALF_UP
    )


def test_every_claim_section_has_a_registered_experiment():
    assert sorted(DOCUMENTED) == sorted(CLAIMS)


@pytest.mark.parametrize("section", CLAIMS)
def test_documented_table_matches_the_experiment(section):
    headers, rows = _documented_table(section)
    table = DOCUMENTED[section]()
    unknown = [header for header in headers if header not in table.headers]
    assert not unknown, f"{section}: {unknown} not in {table.headers}"
    compared = [
        (position, table.headers.index(header))
        for position, header in enumerate(headers)
        if WALL_CLOCK not in header
    ]
    remaining = iter(table.rows)
    for row in rows:
        assert any(
            all(_same(row[mine], got[theirs]) for mine, theirs in compared)
            for got in remaining
        ), (
            f"{section}: documented row {row} is not among the returned "
            f"rows (in order): "
            f"{[[format_cell(cell) for cell in got] for got in table.rows]}"
        )
