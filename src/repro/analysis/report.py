"""Plain-text tables and series for experiment output and EXPERIMENTS.md.

Every experiment module renders its result through these helpers, so
``repro experiment ID`` output and the goldens under
``benchmarks/output/`` ("the same rows/series the paper reports") have
one consistent format.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["format_table", "format_series", "format_pct", "paper_vs_measured"]


def format_pct(x: float) -> str:
    """Render a fraction as a percentage with one decimal."""
    return f"{100.0 * x:.1f}%"


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Fixed-width text table with a separator rule."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[float], ys: Sequence[float], *, fmt: str = "{:.4g}"
) -> str:
    """One named (x, y) series, one point per line."""
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    lines = [f"# series: {name}"]
    lines.extend(f"{fmt.format(x)}\t{fmt.format(y)}" for x, y in zip(xs, ys))
    return "\n".join(lines)


def paper_vs_measured(
    rows: Iterable[tuple[str, object, object]]
) -> str:
    """Three-column comparison table: quantity, paper, measured."""
    return format_table(
        ["quantity", "paper", "measured"],
        [(q, str(p), str(m)) for q, p, m in rows],
    )
