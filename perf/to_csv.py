#!/usr/bin/env python3
"""Ledger step 2: raw per-run JSON -> one CSV.

    python3 perf/run.py --traced --out perf/out/<label>.json   # step 1, per run
    python3 perf/to_csv.py                                     # step 2
    python3 perf/plot.py                                       # step 3

Reads every ledger entry under ``perf/out/`` (or the files named on the
command line), oldest first, and writes ``perf/out/ledger.csv`` with one row
per (entry, workload, metric).  Raw entries are never modified.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"

COLUMNS = [
    "label", "created_unix", "seed", "scale", "workload", "kind", "metric",
    "unit", "value", "repeat_lo", "repeat_hi", "sim_digest", "correct",
]


def load_entries(paths: list[Path]) -> list[dict]:
    """Ledger entries among ``paths`` (other JSON files are skipped), oldest first."""
    entries = []
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and "workloads" in doc and "seed" in doc:
            doc["label"] = doc.get("label") or path.stem
            entries.append(doc)
    return sorted(entries, key=lambda d: (d.get("created_unix", 0.0), d["label"]))


def repeat_range(metric: str, detail: dict) -> tuple[float | str, float | str]:
    """Lowest and highest reading of a host metric across the run's repeats."""
    if metric == "wall_ops_per_s" and detail.get("timed_s"):
        rates = [detail["ops"] / t for t in detail["timed_s"]]
        return min(rates), max(rates)
    if metric == "setup_s" and detail.get("setup_s"):
        return min(detail["setup_s"]), max(detail["setup_s"])
    return "", ""


def rows(entry: dict):
    for workload, runs in entry["workloads"].items():
        for kind, run in runs.items():
            result, detail = run["result"], run["detail"]
            for metric, cell in result["metrics"].items():
                lo, hi = repeat_range(metric, detail)
                yield {
                    "label": entry["label"],
                    "created_unix": entry.get("created_unix", ""),
                    "seed": entry["seed"],
                    "scale": entry["scale"],
                    "workload": workload,
                    "kind": kind,
                    "metric": metric,
                    "unit": cell["unit"],
                    "value": repr(cell["value"]),
                    "repeat_lo": lo,
                    "repeat_hi": hi,
                    "sim_digest": detail.get("sim_digest", ""),
                    "correct": result["correct"],
                }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("entries", nargs="*", type=Path, help="ledger JSON files (default: perf/out/*.json)")
    ap.add_argument("--csv", type=Path, default=OUT_DIR / "ledger.csv")
    args = ap.parse_args(argv)
    paths = args.entries or sorted(OUT_DIR.glob("*.json"))
    entries = load_entries(paths)
    if not entries:
        print("no ledger entries found; run perf/run.py --out perf/out/<label>.json first",
              file=sys.stderr)
        return 1
    args.csv.parent.mkdir(parents=True, exist_ok=True)
    with open(args.csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        for entry in entries:
            writer.writerows(rows(entry))
    print(f"{len(entries)} ledger entries -> {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
