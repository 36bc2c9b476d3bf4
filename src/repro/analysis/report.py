"""Plain-text table rendering for ``repro exp`` and the other verbs.

The artifacts print the same rows/series the paper reports; these helpers
keep that output consistent and legible without any plotting dependency.
"""

from __future__ import annotations


def fmt_scientific(value: float, digits: int = 2) -> str:
    """Paper-style scientific notation: 1.03e+09."""
    return f"{value:.{digits}e}"


def gib(nbytes: float) -> float:
    """Bytes -> GiB."""
    return nbytes / (1 << 30)


def format_table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Fixed-width table with a header rule."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
