"""Plain-text result tables, in the style of a paper's evaluation rows.

Benchmarks and examples print through :class:`Table` so every
experiment's output has the same shape and EXPERIMENTS.md can quote it
verbatim.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the standard summary for speedups)."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


class Table:
    """Fixed-column text table with a title, like a paper table."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([self._format(cell) for cell in cells])

    @staticmethod
    def _format(cell: Cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        parts = [self.title, rule, line(self.columns), rule]
        parts.extend(line(row) for row in self.rows)
        parts.append(rule)
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.render()
