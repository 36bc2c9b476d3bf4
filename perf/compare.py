#!/usr/bin/env python3
"""Compare two ledger entries under the benchmark's own bounds.

    python3 perf/compare.py perf/out/A.json perf/out/B.json

A is the parent, B the change.  One row per (workload, end-to-end metric):

* ``ok``          B is no worse than A by more than the metric's bound;
* ``regression``  it is worse by more than the bound -- exit status 1;
* ``unresolved``  it reads worse by more than the bound, but the two sides'
  repeat ranges overlap by more than the bound, so this pair of runs cannot
  tell (host-clock metrics with repeats only; run more pairs).

Bounds come from ``BENCHMARK.json``.  When both entries ran the same seed at
the same scale, simulated-clock metrics are held to float re-association
(1e-6 relative) instead, ``sim_digest`` must match, and every
``*.calls_per_kop`` of a traced run must be bit-identical; any operation
failed on the B side is a regression whatever the timings say.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path[:0] = [str(ROOT)]

from perf.registry import SAME_SEED_SIM_BOUND  # noqa: E402
from perf.to_csv import repeat_range  # noqa: E402


def load_bounds() -> dict[str, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc["end_to_end"]}


def worse_by(a: float, b: float, better: str) -> float:
    """Relative amount by which B is worse than A (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (a - b) / abs(a) if better == "higher" else (b - a) / abs(a)


def overlap_share(ra, rb) -> float:
    """Width of the two repeat ranges' overlap, relative to their midpoint."""
    lo, hi = max(ra[0], rb[0]), min(ra[1], rb[1])
    mid = (ra[0] + ra[1] + rb[0] + rb[1]) / 4.0
    return max(0.0, hi - lo) / mid if mid else 0.0


def compare(a: dict, b: dict, bounds: dict[str, dict]) -> list[dict]:
    same_inputs = a["seed"] == b["seed"] and a["scale"] == b["scale"]
    rows: list[dict] = []

    def row(workload, metric, status, note="", **kw):
        rows.append({"workload": workload, "metric": metric, "status": status, "note": note, **kw})

    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            row(workload, "*", "regression", "workload missing from B")
            continue
        ea, eb = (side["workloads"][workload]["end_to_end"] for side in (a, b))
        if eb["result"]["failed"] or not eb["result"]["correct"]:
            row(workload, "failed", "regression",
                f"{eb['result']['failed']} of {eb['result']['attempted']} operations failed")
        for metric, spec in bounds.items():
            va = ea["result"]["metrics"][metric]["value"]
            vb = eb["result"]["metrics"][metric]["value"]
            bound = spec["bound"]
            if same_inputs and metric.startswith("sim_"):
                bound = SAME_SEED_SIM_BOUND
            worse = worse_by(va, vb, spec["better"])
            status, note = "ok", ""
            if worse > bound:
                ra, rb = repeat_range(metric, ea["detail"]), repeat_range(metric, eb["detail"])
                if ra[0] != "" and rb[0] != "" and overlap_share(ra, rb) > bound:
                    status, note = "unresolved", "repeat ranges overlap wider than the bound"
                else:
                    status = "regression"
            row(workload, metric, status, note, a=va, b=vb, worse_by=worse, bound=bound)
        if same_inputs:
            da, db = ea["detail"].get("sim_digest"), eb["detail"].get("sim_digest")
            row(workload, "sim_digest", "ok" if da == db else "regression", f"{da} vs {db}")
            la, lb = (side["workloads"][workload].get("per_layer") for side in (a, b))
            if la and lb:
                diffs = [
                    name
                    for name, cell in la["result"]["metrics"].items()
                    if name.endswith(".calls_per_kop")
                    and cell["value"] != lb["result"]["metrics"][name]["value"]
                ]
                row(workload, "*.calls_per_kop", "regression" if diffs else "ok",
                    "differs: " + ", ".join(diffs) if diffs else "bit-identical")
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':22s} {'metric':30s} {'A':>14s} {'B':>14s} {'worse by':>10s} {'bound':>8s}  status"]
    for r in rows:
        if "a" in r:
            lines.append(
                f"{r['workload']:22s} {r['metric']:30s} {r['a']:>14.6g} {r['b']:>14.6g} "
                f"{r['worse_by'] * 100:>9.3f}% {r['bound'] * 100:>7.4g}%  {r['status']}"
                + (f"  ({r['note']})" if r["note"] else "")
            )
        else:
            lines.append(f"{r['workload']:22s} {r['metric']:30s} {'':>49s}  {r['status']}  ({r['note']})")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="parent ledger entry")
    ap.add_argument("b", type=Path, help="change ledger entry")
    args = ap.parse_args(argv)
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    rows = compare(a, b, load_bounds())
    print(render(rows))
    counts = {s: sum(r["status"] == s for r in rows) for s in ("ok", "unresolved", "regression")}
    print(f"{counts['ok']} ok, {counts['unresolved']} unresolved, {counts['regression']} regression")
    return 1 if counts["regression"] else 0


if __name__ == "__main__":
    sys.exit(main())
