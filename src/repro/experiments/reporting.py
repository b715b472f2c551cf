"""Result formatting: aligned text tables and CSV files (as the artifact produces)."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

__all__ = ["format_table", "write_csv", "format_speedup"]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def write_csv(
    path: str | Path, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> Path:
    """Write rows to a CSV file (as the paper's artifact scripts do) and return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_render(cell) for cell in row])
    return path


def format_speedup(value: float) -> str:
    """Format a speedup factor the way the paper's tables do."""
    if value == 0 or value != value:
        return "n.a."
    if value >= 10:
        return f"{value:.1f}"
    return f"{value:.2f}"


def _render(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 1000 else f"{cell:.0f}"
    return str(cell)
