"""Timeline reconstruction: fault windows and latency attribution.

The flight recorder (:mod:`repro.obs.events`) captures *when* faults opened
and closed; the chaos proxy stamps every op with *when* it started
(``OpOutcome.at_s``).  This module joins the two: it pairs each
``fault_inject`` with the event that closed it (``fault_heal``,
``repair_done`` or ``stale_recover``, whichever the fault kind spawns),
yielding :class:`FaultWindow`\\ s, then attributes per-op latency shifts to
those windows -- ops whose start time falls inside a window vs the baseline
of ops that ran with no fault open.  That is the table DXRAM-style recovery
debugging needs: not "p99 got worse" but "p99 got worse *during the log1
partition*".

Everything operates on the JSON form of events (``EventJournal.to_dicts()``
or parsed journal JSONL), so the same code serves the in-process harness and
the ``inspect`` CLI reading a dumped journal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.ascii_chart import sparkline, strip_chart, time_ruler

#: event kinds that can close a fault window, by the fault kind that opened it
_CLOSERS = {
    "crash": ("repair_done", "stale_recover", "fault_heal"),
    # a DRAM blip that outlives the heal plane's grace is repaired, and the
    # node then stays up when the blip's own end comes: no fault_heal follows
    "blip": ("fault_heal", "stale_recover", "repair_done"),
    "slow": ("fault_heal",),
    "partition": ("fault_heal",),
    "stall": (),  # closes by its injected duration, no healing event
}


@dataclass
class FaultWindow:
    """One fault's open interval on the simulated timeline."""

    kind: str
    node_id: str
    start_s: float
    end_s: float  # math.inf when the fault never healed and no run end is known
    #: False when no closer event was found -- the fault was still open when
    #: the run (or the supplied horizon) ended; ``end_s`` is then the clamp
    #: point, not a healing time
    healed: bool = True

    @property
    def closed(self) -> bool:
        return math.isfinite(self.end_s)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def contains(self, t_s: float) -> bool:
        return self.start_s <= t_s <= self.end_s

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "node": self.node_id,
            "start_s": round(self.start_s, 9),
            "end_s": round(self.end_s, 9) if self.closed else None,
            "healed": self.healed,
        }


def fault_windows(
    events: list[dict], run_end_s: float | None = None
) -> list[FaultWindow]:
    """Pair ``fault_inject`` events with whatever closed them.

    A window closes at the first matching closer event for the same node
    after it opened -- a ``fault_heal`` only when it heals the window's own
    kind, so overlapping faults on one node keep their own ends; a
    ``stall`` closes after its injected duration.  A fault
    with no closer stays *open* (``healed=False``): with ``run_end_s`` given
    it is clamped there -- it ran for the rest of the run -- otherwise its
    end is ``inf``.  Open windows therefore always participate in latency
    attribution and MTTR; they are never silently dropped.  Events must be
    the journal's dict form (chronological, as ``EventJournal.to_dicts()``
    returns them).
    """
    windows: list[FaultWindow] = []
    for i, ev in enumerate(events):
        if ev["kind"] != "fault_inject":
            continue
        attrs = ev["attrs"]
        kind = attrs["kind"]
        node = attrs["node"]
        start = ev["t_s"]
        end = math.inf
        healed = False
        closers = _CLOSERS.get(kind, ("fault_heal",))
        for later in events[i + 1 :]:
            if (
                later["kind"] in closers
                and later["attrs"].get("node") == node
                and later["t_s"] >= start
                and (later["kind"] != "fault_heal" or later["attrs"].get("kind") == kind)
            ):
                end = later["t_s"]
                healed = True
                break
        if not healed and kind == "stall":
            end = start + attrs.get("duration_s", 0.0)
            healed = True
        if not healed and run_end_s is not None:
            end = max(start, run_end_s)
        windows.append(
            FaultWindow(kind=kind, node_id=node, start_s=start, end_s=end, healed=healed)
        )
    return windows


def mttr_s(windows: list[FaultWindow]) -> float:
    """Mean time to repair across fault windows.

    Open windows count at their clamped duration (fault active until run
    end) -- pass ``run_end_s`` to :func:`fault_windows` so the mean stays
    finite; a window left at ``inf`` makes the MTTR ``inf``, which is the
    honest answer for an unbounded outage.  No windows means nothing ever
    broke: MTTR 0.
    """
    if not windows:
        return 0.0
    return sum(w.duration_s for w in windows) / len(windows)


def attribute_latency(
    windows: list[FaultWindow],
    samples: list[tuple[float, float, str]],
) -> list[dict]:
    """Per-window latency attribution rows.

    ``samples`` are acked ops as ``(at_s, latency_s, op)``.  The baseline is
    the mean latency of ops that started outside *every* window; each row
    compares the ops that started inside one window against it.  All floats
    are rounded, so the rows are byte-stable for a seeded run.
    """
    baseline = [lat for at, lat, _ in samples if not any(w.contains(at) for w in windows)]
    base_mean = sum(baseline) / len(baseline) if baseline else 0.0
    rows: list[dict] = []
    for w in windows:
        inside = [(lat, op) for at, lat, op in samples if w.contains(at)]
        mean_in = sum(lat for lat, _ in inside) / len(inside) if inside else 0.0
        per_op: dict[str, int] = {}
        for _, op in inside:
            per_op[op] = per_op.get(op, 0) + 1
        shift = (mean_in / base_mean - 1.0) * 100.0 if base_mean > 0 and inside else 0.0
        row = w.to_dict()
        row.update(
            {
                "ops_in_window": len(inside),
                "ops_by_kind": dict(sorted(per_op.items())),
                "mean_in_us": round(mean_in * 1e6, 3),
                "mean_baseline_us": round(base_mean * 1e6, 3),
                "shift_pct": round(shift, 2),
            }
        )
        rows.append(row)
    return rows


def telemetry_overlay(
    telemetry: dict,
    windows: list[FaultWindow] | None = None,
    width: int = 60,
    series: list[str] | None = None,
) -> str:
    """Strip-chart every telemetry series with fault windows marked.

    ``telemetry`` is a sampler's ``to_dict()`` form (as carried by
    ``EngineResult.telemetry``).  All charts
    share one time axis spanning the earliest to the latest sample, so a
    ``time_ruler`` of the fault windows lines up column-for-column under
    them -- occupancy rising *through* the shaded span and recovering after
    it is visible at a glance.  ``series`` filters by name prefix.
    """
    all_series = telemetry.get("series", {})
    names = sorted(all_series)
    if series:
        names = [n for n in names if any(n.startswith(p) for p in series)]
    names = [n for n in names if all_series[n]["points"]]
    if not names:
        return "(no telemetry)"
    t0 = min(all_series[n]["points"][0][0] for n in names)
    t1 = max(all_series[n]["points"][-1][0] for n in names)
    label_w = max(len(n) for n in names)
    lines = [
        f"{len(names)} series over {(t1 - t0) * 1e3:.3f} ms "
        f"[{t0 * 1e3:.3f} .. {t1 * 1e3:.3f} ms]"
    ]
    for name in names:
        points = all_series[name]["points"]
        values = [v for _, v in points]
        lines.append(
            f"{name.ljust(label_w)}  {strip_chart(points, width, t0, t1)}"
            f"  [{min(values):g} .. {max(values):g}] last={values[-1]:g}"
        )
    if windows:
        spans = [(w.start_s, min(w.end_s, t1)) for w in windows if w.start_s <= t1]
        lines.append(f"{'faults'.ljust(label_w)}  {time_ruler(spans, width, t0, t1)}")
        for w in windows:
            end = f"{w.end_s * 1e3:.3f} ms" if w.closed else "open"
            lines.append(
                f"{''.ljust(label_w)}  {w.kind}@{w.node_id} "
                f"[{w.start_s * 1e3:.3f} ms .. {end}]"
            )
    return "\n".join(lines)


def event_timeline(events: list[dict], width: int = 60) -> str:
    """ASCII render: one sparkline of event density per kind over the run."""
    if not events:
        return "(no events)"
    t0 = events[0]["t_s"]
    t1 = events[-1]["t_s"]
    span = max(t1 - t0, 1e-12)
    kinds = sorted({ev["kind"] for ev in events})
    label_w = max(len(k) for k in kinds)
    lines = [
        f"{len(events)} events over {span * 1e3:.3f} ms "
        f"[{t0 * 1e3:.3f} .. {t1 * 1e3:.3f} ms]"
    ]
    for kind in kinds:
        buckets = [0.0] * width
        n = 0
        for ev in events:
            if ev["kind"] != kind:
                continue
            idx = min(width - 1, int((ev["t_s"] - t0) / span * width))
            buckets[idx] += 1
            n += 1
        lines.append(f"{kind.ljust(label_w)}  {sparkline(buckets)}  x{n}")
    return "\n".join(lines)
