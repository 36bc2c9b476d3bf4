"""Perf regression gate: diff two BENCH_*.json profile snapshots.

``python -m repro profile`` distils a run into a byte-deterministic snapshot
(per-op latency quantiles, per-phase means, counter deltas); this module
turns two such snapshots into an enforced perf trajectory.  It walks both
documents to their numeric leaves and compares each against a per-metric
*relative* threshold, producing a machine-readable verdict:

* integer leaves (op counts, chunks repaired, counter deltas that are whole
  IO/RPC counts) must match **exactly** -- the simulator is deterministic,
  so any drift there is a behaviour change, not noise;
* float leaves (latencies in us, repair seconds, fractional counters) may
  drift up to their threshold; a *worsening* beyond it is a regression, an
  improvement beyond it is recorded (so wins are visible, not silent);
* ``spans_digest`` changes and keys present on only one side are surfaced
  as notes -- structural drift worth a look, but not a gate failure;
* mismatched ``meta`` (objects/requests/seed) fails outright: the
  comparison would be meaningless.

The verdict is deterministic (sorted paths, rounded numbers), so the gate's
own output can be diffed.  CI runs it (``python -m repro compare``) between
the committed baseline and a freshly generated profile; the exit code is
the gate.
"""

from __future__ import annotations

#: relative drift allowed per leaf key (exact key match wins over section)
DEFAULT_THRESHOLDS: dict[str, float] = {
    "mean_us": 0.05,
    "p50_us": 0.10,
    "p90_us": 0.10,
    "p99_us": 0.10,
    "min_us": 0.10,
    "max_us": 0.10,
    "repair_time_s": 0.05,
    # sections (matched against path components when no key matches)
    "phases": 0.10,
    "counters": 0.10,
}

#: fallback for float leaves no rule matches
DEFAULT_RELATIVE = 0.10

#: meta fields that must agree for the diff to mean anything
_META_KEYS = ("objects", "requests", "seed")


def _threshold_for(path: str, thresholds: dict[str, float]) -> float:
    leaf = path.rsplit("/", 1)[-1]
    if leaf in thresholds:
        return thresholds[leaf]
    for part in path.split("/"):
        if part in thresholds:
            return thresholds[part]
    return thresholds.get("default", DEFAULT_RELATIVE)


def _walk(doc, path: str, leaves: dict) -> None:
    if isinstance(doc, dict):
        for key in sorted(doc):
            _walk(doc[key], f"{path}/{key}" if path else str(key), leaves)
    else:
        leaves[path] = doc


def compare_profiles(
    baseline: dict,
    candidate: dict,
    thresholds: dict[str, float] | None = None,
    experiments: list[str] | None = None,
) -> dict:
    """Compare two BENCH documents; returns the verdict dict.

    ``experiments`` restricts the comparison to the named experiment slices
    (e.g. CI profiles only exp1 against a full committed baseline).
    """
    merged_thresholds = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        merged_thresholds.update(thresholds)

    verdict = {
        "status": "pass",
        "compared": 0,
        "regressions": [],
        "improvements": [],
        "notes": [],
    }

    base_meta = baseline.get("meta", {})
    cand_meta = candidate.get("meta", {})
    for key in _META_KEYS:
        if base_meta.get(key) != cand_meta.get(key):
            verdict["status"] = "fail"
            verdict["regressions"].append(
                {
                    "path": f"meta/{key}",
                    "baseline": base_meta.get(key),
                    "candidate": cand_meta.get(key),
                    "reason": "meta mismatch: snapshots are not comparable",
                }
            )
    if verdict["regressions"]:
        return verdict

    base_exps = baseline.get("experiments", {})
    cand_exps = candidate.get("experiments", {})
    names = sorted(set(base_exps) & set(cand_exps))
    if experiments is not None:
        names = [n for n in names if n in experiments]
    for only, side in ((set(base_exps) - set(cand_exps), "baseline"),
                       (set(cand_exps) - set(base_exps), "candidate")):
        for name in sorted(only):
            if experiments is None or name in experiments:
                verdict["notes"].append(f"experiment {name!r} only in {side}")

    base_leaves: dict = {}
    cand_leaves: dict = {}
    for name in names:
        _walk(base_exps[name], name, base_leaves)
        _walk(cand_exps[name], name, cand_leaves)

    for path in sorted(set(base_leaves) - set(cand_leaves)):
        verdict["notes"].append(f"key {path!r} missing from candidate")
    for path in sorted(set(cand_leaves) - set(base_leaves)):
        verdict["notes"].append(f"key {path!r} new in candidate")

    for path in sorted(set(base_leaves) & set(cand_leaves)):
        base = base_leaves[path]
        cand = cand_leaves[path]
        leaf = path.rsplit("/", 1)[-1]
        if isinstance(base, str) or isinstance(cand, str):
            if base != cand:
                verdict["notes"].append(
                    f"{path}: {base!r} -> {cand!r}"
                    + (" (span tree changed)" if leaf == "spans_digest" else "")
                )
            continue
        verdict["compared"] += 1
        if isinstance(base, int) and isinstance(cand, int) and not isinstance(base, bool):
            if base != cand:
                verdict["regressions"].append(
                    {
                        "path": path,
                        "baseline": base,
                        "candidate": cand,
                        "reason": "integer metric must match exactly",
                    }
                )
            continue
        base_f = float(base)
        cand_f = float(cand)
        if base_f == cand_f:
            continue
        limit = _threshold_for(path, merged_thresholds)
        if base_f == 0.0:
            # something appeared from nothing: treat as beyond any threshold
            rel = float("inf") if cand_f > 0 else float("-inf")
        else:
            rel = (cand_f - base_f) / abs(base_f)
        entry = {
            "path": path,
            "baseline": base_f,
            "candidate": cand_f,
            "relative": round(rel, 6) if abs(rel) != float("inf") else None,
            "threshold": limit,
        }
        if rel > limit:
            entry["reason"] = f"worse by {rel * 100:.2f}% (limit {limit * 100:g}%)"
            verdict["regressions"].append(entry)
        elif rel < -limit:
            verdict["improvements"].append(entry)

    if verdict["regressions"]:
        verdict["status"] = "fail"
    return verdict


def render_verdict(verdict: dict) -> str:
    """Human-readable rendering of a verdict dict."""
    lines = [
        f"regression gate: {verdict['status'].upper()} "
        f"({verdict['compared']} metrics compared, "
        f"{len(verdict['regressions'])} regressions, "
        f"{len(verdict['improvements'])} improvements)"
    ]
    for entry in verdict["regressions"]:
        lines.append(
            f"  REGRESSION {entry['path']}: {entry['baseline']} -> "
            f"{entry['candidate']} ({entry.get('reason', '')})"
        )
    for entry in verdict["improvements"]:
        lines.append(
            f"  improved   {entry['path']}: {entry['baseline']} -> "
            f"{entry['candidate']}"
        )
    for note in verdict["notes"]:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
