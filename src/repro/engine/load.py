"""Throughput-vs-latency load curves: the engine's headline experiment.

``run_load`` measures one store/workload once (deriving the per-op stage
demands), then replays the identical job stream through the concurrent
engine at each requested client concurrency.  The output is the curve every
systems paper plots: offered concurrency on the x-axis, achieved throughput
and response-time quantiles on the y -- and because service demands are
fixed, the *shape* of the curve is pure queueing: throughput climbs until
the hottest station saturates, then plateaus while p99 grows with the queue
(the saturation knee the acceptance tests assert).

With ``expected_faults > 0`` each concurrency point is run twice -- clean,
then under a seeded fault schedule sized to the clean run's makespan -- and
the faulted run's samples are joined with its journal through
:func:`repro.analysis.timeline.fault_windows` / ``attribute_latency``, so
the JSON shows *which* fault window amplified the tail, not just that the
tail moved.

Everything is deterministic: one seed fixes the workload, the job stream,
the fault schedule and every engine decision, and ``load_doc`` rounds /
sorts everything it emits -- CI byte-compares the JSON across hash seeds.
"""

from __future__ import annotations

import json

from repro.analysis.ascii_chart import sparkline
from repro.analysis.timeline import (
    FaultWindow,
    attribute_latency,
    fault_windows,
    telemetry_overlay,
)
from repro.bench.runner import load_store, make_scenario
from repro.chaos.schedule import FaultSchedule
from repro.engine.admission import AdmissionConfig
from repro.engine.core import Engine, EngineConfig, EngineResult, _latency_summary
from repro.engine.jobs import JobSpec, derive_jobs
from repro.workloads.ycsb import generate_requests

DEFAULT_CONCURRENCIES = (1, 4, 16, 64)


def build_jobs(
    store_name: str = "logecmem",
    scheme: str = "plm",
    k: int = 6,
    r: int = 3,
    value_size: int = 4096,
    ratio: str = "50:50",
    n_objects: int = 600,
    n_requests: int = 600,
    seed: int = 42,
):
    """Measurement pass: load a store, execute the workload once, return
    ``(jobs, profile, dram_ids, log_ids)`` for engine replays."""
    store, spec = make_scenario(
        store_name, scheme, k, r, value_size, ratio, n_objects, n_requests, seed
    )
    load_store(store, spec)
    jobs = derive_jobs(store, generate_requests(spec))
    dram_ids = list(store.cluster.dram_ids())
    log_ids = list(store.cluster.log_ids())
    return jobs, store.cfg.profile, dram_ids, log_ids


def run_point(
    jobs: list[JobSpec],
    profile,
    concurrency: int,
    think_s: float = 0.0,
    window: int | None = None,
    queue_cap: int = 128,
    faults: FaultSchedule | None = None,
    telemetry_interval_s: float = 0.0,
    slo_p99_us: float = 0.0,
) -> EngineResult:
    """One engine run at one concurrency."""
    cfg = EngineConfig(
        concurrency=concurrency,
        think_s=think_s,
        admission=AdmissionConfig(window=window, queue_cap=queue_cap),
        telemetry_interval_s=telemetry_interval_s,
        slo_p99_us=slo_p99_us,
    )
    engine = Engine(
        jobs, profile, cfg, faults=list(faults) if faults is not None else None
    )
    return engine.run()


def run_load(
    store_name: str = "logecmem",
    scheme: str = "plm",
    k: int = 6,
    r: int = 3,
    value_size: int = 4096,
    ratio: str = "50:50",
    n_objects: int = 600,
    n_requests: int = 600,
    seed: int = 42,
    concurrencies: tuple[int, ...] = DEFAULT_CONCURRENCIES,
    think_s: float = 0.0,
    window: int | None = None,
    queue_cap: int = 128,
    expected_faults: float = 0.0,
) -> dict:
    """The full load experiment; returns the deterministic curve document."""
    jobs, profile, dram_ids, log_ids = build_jobs(
        store_name, scheme, k, r, value_size, ratio, n_objects, n_requests, seed
    )
    doc: dict = {
        "meta": {
            "store": store_name,
            "scheme": scheme,
            "code": [k, r],
            "value_size": value_size,
            "ratio": ratio,
            "objects": n_objects,
            "requests": n_requests,
            "seed": seed,
            "concurrencies": list(concurrencies),
            "think_s": round(think_s, 9),
            "window": window,
            "queue_cap": queue_cap,
            "expected_faults": round(expected_faults, 6),
        },
        "jobs": _jobs_summary(jobs),
        "curve": [],
    }
    point_kw = dict(think_s=think_s, window=window, queue_cap=queue_cap)
    for c in concurrencies:
        clean = run_point(jobs, profile, c, **point_kw)
        point = clean.to_dict()
        if expected_faults > 0:
            schedule = _schedule_over(clean, dram_ids, log_ids, expected_faults, seed)
            faulted = run_point(jobs, profile, c, faults=schedule, **point_kw)
            point["chaos"] = _chaos_point(schedule, faulted, clean)
        doc["curve"].append(point)
    doc["knee"] = knee_summary(doc["curve"])
    return doc


def _jobs_summary(jobs: list[JobSpec]) -> dict:
    by_op: dict[str, int] = {}
    service = 0.0
    log_bytes = 0
    stations: dict[str, float] = {}
    for job in jobs:
        by_op[job.op] = by_op.get(job.op, 0) + 1
        service += job.service_s
        log_bytes += job.log_bytes
        for stage in job.stages:
            stations[stage.station] = stations.get(stage.station, 0.0) + stage.service_s
    return {
        "count": len(jobs),
        "by_op": dict(sorted(by_op.items())),
        "service_total_s": round(service, 9),
        "log_bytes_total": log_bytes,
        "station_demand_s": {
            name: round(s, 9) for name, s in sorted(stations.items())
        },
    }


def _schedule_over(
    clean: EngineResult, dram_ids, log_ids, expected_faults: float, seed: int
) -> FaultSchedule:
    """A seeded fault schedule sized to a clean run's makespan."""
    return FaultSchedule.with_expected_faults(
        dram_ids,
        log_ids,
        horizon_s=max(clean.makespan_s, 1e-6),
        expected_faults=expected_faults,
        seed=seed,
    )


def _chaos_point(
    schedule: FaultSchedule, faulted: EngineResult, clean: EngineResult
) -> dict:
    """One point re-run under ``schedule``: the faulted run's latency
    attributed to fault windows and set against the ``clean`` run."""
    windows = fault_windows(faulted.events, run_end_s=faulted.makespan_s)
    attribution = attribute_latency(windows, faulted.samples)
    in_lats = sorted(
        lat
        for at, lat, _ in faulted.samples
        if any(w.contains(at) for w in windows)
    )
    out_lats = sorted(
        lat
        for at, lat, _ in faulted.samples
        if not any(w.contains(at) for w in windows)
    )
    return {
        "faults": len(schedule),
        "fault_kinds": schedule.kinds(),
        "overall": faulted.overall,
        "throughput_ops_s": round(faulted.throughput_ops_s, 3),
        "makespan_s": round(faulted.makespan_s, 9),
        "p99_shift_vs_clean_pct": _shift_pct(
            faulted.overall.get("p99_us", 0.0), clean.overall.get("p99_us", 0.0)
        ),
        "in_window": _latency_summary(in_lats),
        "out_window": _latency_summary(out_lats),
        "attribution": attribution,
    }


def _shift_pct(value: float, base: float) -> float:
    return round((value / base - 1.0) * 100.0, 2) if base > 0 else 0.0


def knee_summary(curve: list[dict]) -> dict:
    """Saturation-knee indicators across the curve (lowest vs highest C)."""
    if not curve:
        return {}
    lo, hi = curve[0], curve[-1]
    lo_p99 = lo["overall"].get("p99_us", 0.0)
    hi_p99 = hi["overall"].get("p99_us", 0.0)
    peak = max(pt["throughput_ops_s"] for pt in curve)
    return {
        "c_lo": lo["concurrency"],
        "c_hi": hi["concurrency"],
        "throughput_lo_ops_s": lo["throughput_ops_s"],
        "throughput_hi_ops_s": hi["throughput_ops_s"],
        "throughput_peak_ops_s": peak,
        "hi_over_peak": round(pt_ratio(hi["throughput_ops_s"], peak), 6),
        "p99_lo_us": lo_p99,
        "p99_hi_us": hi_p99,
        "p99_amplification": round(pt_ratio(hi_p99, lo_p99), 3),
    }


def pt_ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def load_json(doc: dict) -> str:
    """Byte-stable serialisation of a load (or watch) document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_load(doc: dict) -> str:
    """ASCII summary: the curve table plus per-point utilisation hot spots."""
    lines = []
    meta = doc["meta"]
    lines.append(
        f"{meta['store']} ({meta['code'][0]},{meta['code'][1]}) "
        f"scheme={meta['scheme']} r:u={meta['ratio']} "
        f"jobs={doc['jobs']['count']} seed={meta['seed']}"
    )
    header = (
        f"{'C':>5} {'ops/s':>12} {'p50 us':>10} {'p99 us':>10} "
        f"{'max us':>10} {'rej':>5}  hottest station"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for pt in doc["curve"]:
        # a point that ran no jobs (n_requests=0) visited no station
        hottest = "-"
        if pt["stations"]:
            hot_name, hot = max(
                pt["stations"].items(), key=lambda kv: kv[1]["utilisation"]
            )
            hottest = f"{hot_name} @ {hot['utilisation'] * 100:.1f}%"
        overall = pt["overall"]  # just {"count": 0} for such a point
        lines.append(
            f"{pt['concurrency']:>5} {pt['throughput_ops_s']:>12.1f} "
            f"{overall.get('p50_us', 0.0):>10.1f} {overall.get('p99_us', 0.0):>10.1f} "
            f"{overall.get('max_us', 0.0):>10.1f} {pt['jobs_rejected']:>5}  {hottest}"
        )
        chaos = pt.get("chaos")
        if chaos:
            lines.append(
                f"      chaos: {chaos['faults']} faults, "
                f"p99 {chaos['overall'].get('p99_us', 0.0):.1f}us "
                f"({chaos['p99_shift_vs_clean_pct']:+.1f}% vs clean), "
                f"in-window p99 {chaos['in_window'].get('p99_us', 0.0):.1f}us "
                f"vs out {chaos['out_window'].get('p99_us', 0.0):.1f}us"
            )
    knee = doc.get("knee") or {}
    if knee:
        lines.append(
            f"knee: throughput x{pt_ratio(knee['throughput_hi_ops_s'], knee['throughput_lo_ops_s']):.2f} "
            f"(C={knee['c_lo']}->{knee['c_hi']}), "
            f"p99 x{knee['p99_amplification']:.2f}, "
            f"hi/peak={knee['hi_over_peak']:.3f}"
        )
    lines.append(
        "throughput  " + sparkline([pt["throughput_ops_s"] for pt in doc["curve"]])
    )
    lines.append(
        "p99         "
        + sparkline([pt["overall"].get("p99_us", 0.0) for pt in doc["curve"]])
    )
    return "\n".join(lines)


# ------------------------------------------------------------------- watch


def run_watch(
    store_name: str = "logecmem",
    scheme: str = "plm",
    k: int = 6,
    r: int = 3,
    value_size: int = 4096,
    ratio: str = "50:50",
    n_objects: int = 600,
    n_requests: int = 600,
    seed: int = 42,
    concurrency: int = 16,
    think_s: float = 0.0,
    window: int | None = None,
    queue_cap: int = 128,
    expected_faults: float = 0.0,
    samples: int = 48,
    slo_factor: float = 1.5,
) -> dict:
    """One engine point instrumented for watching.

    Runs the point clean first to size the telemetry interval (the run
    divided into ``samples`` ticks) and the SLO target (``slo_factor`` x the
    clean p99 -- so a healthy rerun stays inside budget and a degraded one
    burns), then reruns with telemetry on and, with ``expected_faults > 0``,
    a seeded fault schedule spanning the clean makespan.  The document is
    deterministic end to end; ``render_watch`` turns it into strip charts.
    """
    jobs, profile, dram_ids, log_ids = build_jobs(
        store_name, scheme, k, r, value_size, ratio, n_objects, n_requests, seed
    )
    point_kw = dict(think_s=think_s, window=window, queue_cap=queue_cap)
    clean = run_point(jobs, profile, concurrency, **point_kw)
    interval_s = round(max(clean.makespan_s / max(samples, 1), 1e-9), 12)
    slo_p99_us = round(clean.overall.get("p99_us", 0.0) * slo_factor, 3)
    faults = None
    if expected_faults > 0:
        faults = _schedule_over(clean, dram_ids, log_ids, expected_faults, seed)
    watched = run_point(
        jobs,
        profile,
        concurrency,
        faults=faults,
        telemetry_interval_s=interval_s,
        slo_p99_us=slo_p99_us,
        **point_kw,
    )
    windows = fault_windows(watched.events, run_end_s=watched.makespan_s)
    return {
        "meta": {
            "store": store_name,
            "scheme": scheme,
            "code": [k, r],
            "value_size": value_size,
            "ratio": ratio,
            "objects": n_objects,
            "requests": n_requests,
            "seed": seed,
            "concurrency": concurrency,
            "expected_faults": round(expected_faults, 6),
            "interval_s": round(interval_s, 9),
            "slo_p99_us": slo_p99_us,
        },
        "clean": {
            "throughput_ops_s": round(clean.throughput_ops_s, 3),
            "p99_us": clean.overall.get("p99_us", 0.0),
            "makespan_s": round(clean.makespan_s, 9),
        },
        "point": watched.to_dict(),
        "windows": [w.to_dict() for w in windows],
    }


def _doc_windows(doc: dict) -> list[FaultWindow]:
    """Rebuild FaultWindow objects from a watch document's dict form."""
    import math

    return [
        FaultWindow(
            kind=w["kind"],
            node_id=w["node"],
            start_s=w["start_s"],
            end_s=w["end_s"] if w["end_s"] is not None else math.inf,
            healed=w["healed"],
        )
        for w in doc.get("windows", [])
    ]


def render_watch(doc: dict, width: int = 60, series: list[str] | None = None) -> str:
    """ASCII view of a watch document: run header, SLO verdict, strip
    charts of every telemetry series with fault windows shaded."""
    meta = doc["meta"]
    pt = doc["point"]
    lines = [
        f"watch: {meta['store']} ({meta['code'][0]},{meta['code'][1]}) "
        f"scheme={meta['scheme']} r:u={meta['ratio']} C={meta['concurrency']} "
        f"seed={meta['seed']}",
        f"ops={pt['jobs_completed']} rejected={pt['jobs_rejected']} "
        f"throughput={pt['throughput_ops_s']:.1f} ops/s "
        f"p99={pt['overall'].get('p99_us', 0.0):.1f}us "
        f"makespan={pt['makespan_s'] * 1e3:.3f} ms",
    ]
    slo = pt.get("telemetry", {}).get("slo")
    if slo:
        state = "BURNING" if slo["episodes"] else "ok"
        lines.append(
            f"slo: target p99={slo['target_p99_us']:.1f}us {state} "
            f"episodes={slo['episodes']} max_burn={slo['max_burn_rate']:.2f}"
        )
    lines.append(
        telemetry_overlay(
            pt.get("telemetry", {}),
            windows=_doc_windows(doc),
            width=width,
            series=series,
        )
    )
    return "\n".join(lines)


#: byte-stable serialisation of a watch document: the load document's
watch_json = load_json
