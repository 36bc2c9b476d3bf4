"""Terminal bar charts for the benchmark/report output.

No plotting dependency: figures render as labelled horizontal bars, good
enough to *see* the shapes the paper's figures show (who wins, where the
crossover falls) directly in the harness output.
"""

from __future__ import annotations

BAR_CHARS = "█"


def hbar_chart(
    series: dict[str, float],
    width: int = 40,
    unit: str = "",
    title: str | None = None,
) -> str:
    """One horizontal bar per entry, scaled to the max value."""
    if not series:
        return title or ""
    peak = max(series.values())
    if peak <= 0:
        peak = 1.0
    label_w = max(len(k) for k in series)
    lines = [title] if title else []
    for name, value in series.items():
        bar = BAR_CHARS * max(1, round(value / peak * width)) if value > 0 else ""
        lines.append(f"{name.ljust(label_w)}  {bar} {value:g}{unit}")
    return "\n".join(lines)


def strip_chart(
    points: list[tuple[float, float]],
    width: int = 60,
    t0: float | None = None,
    t1: float | None = None,
) -> str:
    """A fixed-width strip chart over a shared time axis.

    Unlike :func:`sparkline` (one glyph per value), the x axis here is
    *time*: ``points`` are ``(t_s, value)`` samples bucketed into ``width``
    columns spanning ``[t0, t1]`` so several series render column-aligned
    (and fault-window rulers line up underneath).  Buckets average their
    samples; empty buckets render as spaces.
    """
    if not points:
        return " " * width
    if t0 is None:
        t0 = points[0][0]
    if t1 is None:
        t1 = points[-1][0]
    span = max(t1 - t0, 1e-12)
    sums = [0.0] * width
    counts = [0] * width
    for t_s, value in points:
        idx = min(width - 1, max(0, int((t_s - t0) / span * width)))
        sums[idx] += value
        counts[idx] += 1
    means = [sums[i] / counts[i] if counts[i] else None for i in range(width)]
    present = [v for v in means if v is not None]
    lo, hi = min(present), max(present)
    vspan = hi - lo
    blocks = "▁▂▃▄▅▆▇█"
    cells = []
    for v in means:
        if v is None:
            cells.append(" ")
        elif vspan <= 0:
            cells.append(blocks[0])
        else:
            cells.append(blocks[min(len(blocks) - 1, int((v - lo) / vspan * len(blocks)))])
    return "".join(cells)


def time_ruler(
    spans: list[tuple[float, float]],
    width: int = 60,
    t0: float = 0.0,
    t1: float = 1.0,
) -> str:
    """Mark time intervals (e.g. fault windows) on a strip-chart axis.

    Columns covered by any span render ``▓``, the rest ``·`` -- lay this
    under :func:`strip_chart` output built with the same ``t0``/``t1``.
    """
    axis_span = max(t1 - t0, 1e-12)
    cells = ["·"] * width
    for start, end in spans:
        lo = max(0, int((start - t0) / axis_span * width))
        hi = min(width - 1, int((end - t0) / axis_span * width))
        for i in range(lo, hi + 1):
            cells[i] = "▓"
    return "".join(cells)


def sparkline(values: list[float], width: int | None = None) -> str:
    """A one-line trend: ▁▂▃▄▅▆▇█ buckets over the value range."""
    blocks = "▁▂▃▄▅▆▇█"
    if not values:
        return ""
    if width and len(values) > width:
        # downsample by striding (keeps ends)
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return blocks[0] * len(values)
    return "".join(
        blocks[min(len(blocks) - 1, int((v - lo) / span * len(blocks)))]
        for v in values
    )
