#!/usr/bin/env python3
"""Ledger step 3: ASCII trajectory of every end-to-end metric per workload.

Reads ``perf/out/ledger.csv`` (written by ``perf/to_csv.py``) and prints, for
each workload, one line per end-to-end metric: a sparkline over the ledger
entries in order, the first and last values, and the change between them in
the metric's own direction (``+`` is better).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path[:0] = [str(ROOT / "src")]

from repro.analysis.ascii_chart import sparkline  # noqa: E402


def directions() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def trajectories(csv_path: Path) -> tuple[list[str], dict]:
    """(entry labels in order, {workload: {metric: (unit, [values])}})."""
    labels: list[str] = []
    series: dict = {}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["kind"] != "end_to_end":
                continue
            if row["label"] not in labels:
                labels.append(row["label"])
            unit, values = series.setdefault(row["workload"], {}).setdefault(
                row["metric"], (row["unit"], [])
            )
            values.append(float(row["value"]))
    return labels, series


def render(labels: list[str], series: dict, better: dict[str, str]) -> str:
    lines = [f"{len(labels)} ledger entries: " + " -> ".join(labels)]
    for workload, metrics in series.items():
        lines.append(f"== {workload}")
        for metric, (unit, values) in metrics.items():
            first, last = values[0], values[-1]
            change = (last / first - 1.0) * 100.0 if first else 0.0
            if better.get(metric) == "lower":
                change = -change
            lines.append(
                f"  {metric:30s} {sparkline(values):{max(8, len(labels))}s} "
                f"{first:>14.6g} -> {last:<14.6g} {unit:8s} {change:+7.2f}% better"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--csv", type=Path, default=PERF_DIR / "out" / "ledger.csv")
    args = ap.parse_args(argv)
    if not args.csv.exists():
        print(f"{args.csv} not found; run perf/to_csv.py first", file=sys.stderr)
        return 1
    labels, series = trajectories(args.csv)
    print(render(labels, series, directions()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
