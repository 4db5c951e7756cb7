"""Shared helpers for the paper-claim experiments.

Each ``bench_eN_*.py`` module regenerates one experiment from the
per-experiment index in DESIGN.md. Experiments print their result tables
(run pytest with ``-s`` to see them live) and assert the *shape* the
paper claims — who wins, in which direction.

The experiment behind each table of EXPERIMENTS.md (E1–E15, A1–A4) is
registered here with :func:`documents`. ``tests/test_experiments_doc.py``
checks every number in those tables against the rows the experiment
returns, and because a registered experiment is memoised, the claim test
and the document check share one run.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Table:
    """One experiment's result table, as printed and as documented."""

    title: str
    headers: list[str]
    rows: list[list]

    def show(self) -> None:
        print_table(self.title, self.headers, self.rows)


#: EXPERIMENTS.md section ("E2", "A3") -> the experiment filling its table.
DOCUMENTED: dict[str, Callable[[], Table]] = {}


def documents(section: str):
    """Register a memoised experiment as the source of ``section``'s table."""

    def register(experiment: Callable[[], Table]) -> Callable[[], Table]:
        experiment = functools.cache(experiment)
        DOCUMENTED[section] = experiment
        return experiment

    return register


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render one experiment's result table to stdout."""
    widths = [
        max(len(str(headers[i])), *(len(format_cell(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print(
            "  ".join(
                format_cell(cell).ljust(w) for cell, w in zip(row, widths)
            )
        )


def format_cell(cell) -> str:
    """A cell as the table prints it: floats to three decimals."""
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
