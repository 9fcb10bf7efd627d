"""Deterministic text tables and series rendering for experiment output."""

from __future__ import annotations

from typing import Any, Iterable, Sequence


class TextTable:
    """An aligned text table builder.

    >>> t = TextTable(["filter", "yield", "accuracy"])
    >>> t.add_row(["mass_mailing", 1.0, 0.82])
    >>> t.add_row(["fund_raising", 0.55, 0.97])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    filter       | yield | accuracy
    -------------+-------+---------
    mass_mailing | 1     | 0.82
    fund_raising | 0.55  | 0.97
    """

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        self.title = title
        self.headers = list(headers)
        self._rows: list[list[str]] = []

    def add_row(self, cells: Sequence[Any]) -> None:
        """Append one row (cells are stringified; floats keep repr)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells; table has {len(self.headers)} columns"
            )
        self._rows.append([_format_cell(c) for c in cells])

    def add_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.add_row(row)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def render(self) -> str:
        grid = [self.headers] + self._rows
        widths = [max(len(cell) for cell in column) for column in zip(*grid)]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(
            " | ".join(h.ljust(w) for h, w in zip(self.headers, widths)).rstrip()
        )
        lines.append("-+-".join("-" * w for w in widths))
        for row in self._rows:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_series(
    x_label: str,
    y_label: str,
    points: Sequence[tuple[Any, float]],
    width: int = 40,
    title: str = "",
) -> str:
    """A simple horizontal-bar rendering of one (x, y) series.

    Used for "figure-like" benchmark output: each x gets a bar scaled to
    the series maximum.
    """
    if not points:
        return f"{title or y_label}: (no points)"
    max_y = max(abs(y) for _, y in points) or 1.0
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{x_label} vs {y_label} (bar = value / {max_y:.4g})")
    label_width = max(len(str(x)) for x, _ in points)
    for x, y in points:
        bar = "#" * int(round(abs(y) / max_y * width))
        lines.append(f"{str(x).rjust(label_width)} | {bar} {y:.4g}")
    return "\n".join(lines)
