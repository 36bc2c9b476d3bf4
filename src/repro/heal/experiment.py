"""Closed-loop resilience experiment: the same seeded chaos run, with and
without the control plane.

The *open-loop* arm runs the chaos harness with no control plane -- faults
land, transients heal on their own schedule, but crashes stay down, blipped
log nodes stay down and stale parities stay stale: nothing wires detection
to repair.  The *closed-loop* arm runs the identical store/workload/schedule
with a :class:`ControlPlane` attached.  Both arms share the seed, so the
fault schedules are identical and the MTTR/availability deltas are
attributable to the plane alone.
"""

from __future__ import annotations

import math

from repro.analysis.report import format_table
from repro.bench.runner import make_scenario
from repro.chaos.harness import ChaosReport, run_chaos
from repro.heal.plane import ControlPlane


def _arm_summary(report: ChaosReport) -> dict:
    return {
        "mttr_ms": round(report.mttr_s * 1e3, 6),
        "availability_pct": round(report.availability * 100.0, 6),
        "violations": report.violations,
        "ops_acked": report.ops_acked,
        "ops_failed": report.ops_failed,
        "degraded_reads": report.degraded_reads,
        "faults_fired": dict(sorted(report.faults_fired.items())),
        "makespan_ms": round(report.makespan_s * 1e3, 6),
        "fingerprint": report.fingerprint(),
    }


def run_heal_experiment(
    store_name: str = "logecmem",
    scheme: str = "plm",
    k: int = 6,
    r: int = 3,
    value_size: int = 4096,
    ratio: str = "50:50",
    n_objects: int = 600,
    n_requests: int = 600,
    seed: int = 42,
    expected_faults: float = 6.0,
    plane: ControlPlane | None = None,
) -> dict:
    """Run both arms and return a deterministic comparison document.

    ``expected_faults`` defaults higher than the plain chaos command so a
    typical seed draws at least one crash -- the fault family whose window
    never closes open-loop, which is what MTTR/availability separate on.
    """
    if plane is not None and plane.store is not None:
        raise ValueError("pass a fresh (unattached) ControlPlane")
    reports: dict[str, ChaosReport] = {}
    for arm in ("disabled", "enabled"):
        store, spec = make_scenario(
            store_name, scheme, k, r, value_size, ratio, n_objects, n_requests, seed
        )
        control_plane = (plane or ControlPlane()) if arm == "enabled" else None
        reports[arm] = run_chaos(
            store,
            spec,
            expected_faults=expected_faults,
            control_plane=control_plane,
        )
    disabled, enabled = reports["disabled"], reports["enabled"]
    doc = {
        "meta": {
            "store": store_name,
            "scheme": scheme,
            "k": k,
            "r": r,
            "ratio": ratio,
            "objects": n_objects,
            "requests": n_requests,
            "seed": seed,
            "expected_faults": expected_faults,
        },
        "disabled": _arm_summary(disabled),
        "enabled": _arm_summary(enabled),
        "heal": enabled.heal,
        "mttr_improvement_ms": round((disabled.mttr_s - enabled.mttr_s) * 1e3, 6),
        "availability_gain_pct": round(
            (enabled.availability - disabled.availability) * 100.0, 6
        ),
    }
    doc["reports"] = reports  # not serialised; CLI/tests read the full reports
    return doc


def experiment_ok(doc: dict) -> list[str]:
    """Acceptance checks for one experiment document; returns problems.

    The enabled arm must hold its invariants, report a finite MTTR, and
    strictly beat the open-loop arm on both MTTR and availability whenever a
    crash actually fired (without one, both arms see only self-healing
    transients and the plane has nothing durable to win on).
    """
    problems: list[str] = []
    enabled, disabled = doc["enabled"], doc["disabled"]
    if enabled["violations"]:
        problems.append(f"enabled arm has {enabled['violations']} invariant violations")
    if not math.isfinite(enabled["mttr_ms"]):
        problems.append("enabled arm MTTR is not finite")
    crashes = disabled["faults_fired"].get("crash", 0)
    if crashes:
        if not enabled["mttr_ms"] < disabled["mttr_ms"]:
            problems.append(
                f"MTTR not improved: enabled {enabled['mttr_ms']}ms "
                f">= disabled {disabled['mttr_ms']}ms"
            )
        if not enabled["availability_pct"] > disabled["availability_pct"]:
            problems.append(
                f"availability not improved: enabled {enabled['availability_pct']}% "
                f"<= disabled {disabled['availability_pct']}%"
            )
    return problems


def render_heal(doc: dict, report: bool = False) -> str:
    """Plain-text view of an experiment document: the two arms side by side
    and the plane's tally; with ``report`` also every executed action
    (verification-bracketed) and every incident."""
    meta = doc["meta"]
    rows = []
    for arm in ("disabled", "enabled"):
        s = doc[arm]
        rows.append([
            arm,
            f"{s['mttr_ms']:.3f}",
            f"{s['availability_pct']:.4f}",
            s["violations"],
            s["ops_failed"],
            s["degraded_reads"],
        ])
    heal = doc["heal"]
    lines = [
        format_table(
            ["control plane", "MTTR ms", "avail %", "violations", "failed ops",
             "degraded"],
            rows,
            title=f"{meta['store']} ({meta['k']},{meta['r']}) closed-loop "
            f"resilience, seed {meta['seed']}",
        ),
        f"plane: {len(heal['incidents'])} incidents "
        f"({heal['incidents_suppressed']} suppressed), "
        f"{heal['actions_executed']}/{heal['actions_proposed']} actions executed, "
        f"{heal['actions_deferred']} deferrals, {heal['rollbacks']} rollbacks, "
        f"{heal['escalations']} escalations",
        f"MTTR improvement: {doc['mttr_improvement_ms']:.3f} ms; "
        f"availability gain: {doc['availability_gain_pct']:.4f} pp",
    ]
    if report:
        lines.append(format_table(
            ["seq", "action", "node", "incident", "status", "pre ok", "post ok"],
            [[e["action"]["seq"], e["action"]["kind"], e["action"]["node"],
              e["action"]["incident"], e["result"].get("status", "?"),
              not e["pre"]["violations"], not e["new_violations"]]
             for e in heal["executed"]],
            title="executed actions (verification-bracketed)",
        ))
        for inc in heal["incidents"]:
            state = "resolved" if inc["resolved"] else "OPEN"
            lines.append(
                f"  incident {inc['seq']}: {inc['kind']} on {inc['node']} "
                f"@ {inc['detected_s'] * 1e3:.3f} ms [{state}]"
            )
    return "\n".join(lines)
