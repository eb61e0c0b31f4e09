"""Paper-style text tables for benchmark output."""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(
    rows: Sequence[Sequence[object]],
    headers: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned monospace table.

    >>> print(format_table([["a", 1]], headers=["k", "v"]))
    k | v
    --+--
    a | 1
    """
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    if headers is not None:
        str_rows.insert(0, [str(h) for h in headers])
    if not str_rows:
        return ""
    n_cols = max(len(row) for row in str_rows)
    for row in str_rows:
        row.extend("" for _ in range(n_cols - len(row)))
    widths = [max(len(row[c]) for row in str_rows) for c in range(n_cols)]
    lines = []
    for index, row in enumerate(str_rows):
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if headers is not None and index == 0:
            lines.append("-+-".join("-" * w for w in widths))
    table = "\n".join(lines)
    if title:
        table = f"{title}\n{table}"
    return table
