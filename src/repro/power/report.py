"""Tabular formatting of power results (the paper's table style)."""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain fixed-width table (monospace, like the paper's tables)."""
    columns = [len(str(h)) for h in headers]
    text_rows: List[List[str]] = []
    for row in rows:
        cells = []
        for i, cell in enumerate(row):
            if isinstance(cell, float):
                text = f"{cell:.2f}"
            else:
                text = str(cell)
            cells.append(text)
            if i < len(columns):
                columns[i] = max(columns[i], len(text))
        text_rows.append(cells)
    lines = []
    header = "  ".join(str(h).ljust(columns[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for cells in text_rows:
        lines.append(
            "  ".join(cells[i].ljust(columns[i]) for i in range(len(cells)))
        )
    return "\n".join(lines)
