"""Table and series rendering shared by the benchmark harness.

Every benchmark regenerates a paper artifact as a :class:`Table` (for
tables) or :class:`Series` (for figures) and prints it, so running
``pytest benchmarks/ --benchmark-only`` reproduces the evaluation
section's rows and curves on stdout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

__all__ = ["Table", "Series"]


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    # One row must stay one line: fold any embedded line separators
    # (splitlines covers \n, \r, \x1c-\x1e, \x85,  ...).
    text = str(value)
    return " ".join(text.splitlines())


@dataclass
class Table:
    """A paper-style results table."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: Optional[str] = None

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def render(self) -> str:
        cells = [[_format_cell(c) for c in row] for row in self.rows]
        widths = [
            max(len(str(col)), *(len(row[i]) for row in cells)) if cells else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
        if self.notes:
            lines.append(f"   note: {self.notes}")
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render() + "\n")


@dataclass
class Series:
    """A paper-style figure: one or more named curves over shared x."""

    title: str
    x_label: str
    y_label: str
    x: List[float] = field(default_factory=list)
    curves: dict = field(default_factory=dict)

    def add_point(self, curve: str, x: float, y: float) -> None:
        points = self.curves.setdefault(curve, [])
        points.append((x, y))
        if x not in self.x:
            self.x.append(x)

    def render(self, width: int = 50) -> str:
        lines = [f"== {self.title} ==", f"   {self.y_label} vs {self.x_label}"]
        all_y = [y for pts in self.curves.values() for _x, y in pts]
        if not all_y:
            return "\n".join(lines + ["   (no data)"])
        y_max = max(all_y) or 1.0
        for name, points in self.curves.items():
            lines.append(f"   [{name}]")
            for x, y in sorted(points):
                bar = "#" * max(1, int(width * y / y_max)) if y > 0 else ""
                lines.append(f"   {x:>10.3g}  {y:>12.4g}  {bar}")
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render() + "\n")
