"""Per-phase profiling harness (``python -m repro profile <exp>``).

Runs a scaled-down slice of the paper's experiments with span tracing on and
distils each into a deterministic perf snapshot: per-op latency quantiles
(p50/p90/p99 from the streaming histograms), per-phase mean times (from the
span trees), and the run's counter deltas.  ``write_profile`` serialises the
whole document with sorted keys and rounded floats, so two same-seed runs
produce **byte-identical** ``BENCH_PR3.json`` files.  The committed
``BENCH_PR3.json`` is ``profile all``'s golden: tier-1
(``tests/test_determinism.py``) regenerates it and requires it byte for byte,
so any moved leaf of any slice fails the suite.

Covered slices:

* ``exp1`` -- all five stores under the 95:5 read-heavy mix, plus forced
  degraded reads (Figure 10's regime);
* ``exp2`` -- the EC stores under the 50:50 update-heavy mix (Figure 11);
* ``exp6`` -- LogECMem degraded reads with two DRAM nodes down, exercising
  the logged-parity escalation (Figure 14 c-d);
* ``exp7`` -- node repair with and without log-assist (Figure 15);
* ``heal`` -- the closed-loop control-plane experiment: MTTR/availability
  with and without the plane, plus the plane's own action counts;
* ``load`` -- the concurrent engine's load curve at two client counts:
  throughput, tail quantiles, rejects, flush/backpressure activity and the
  knee indicators, so queueing-behaviour changes show like latency ones.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.report import format_table
from repro.bench.runner import (
    load_store,
    make_scenario,
    measure_degraded_reads,
    run_requests,
)
from repro.core.repair import repair_node
from repro.heal import run_heal_experiment
from repro.obs import init_observability
from repro.workloads import generate_requests

PROFILE_EXPERIMENTS = ("exp1", "exp2", "exp6", "exp7", "heal", "load")

ALL_STORES = ("vanilla", "replication", "ipmem", "fsmem", "logecmem")
EC_STORES = ("ipmem", "fsmem", "logecmem")

#: forced degraded reads sampled per store in exp1/exp6
DEGRADED_SAMPLES = 40


def _counter_delta(before: dict, after: dict) -> dict[str, float]:
    """Counters that moved during the profiled window, rounded for stable
    JSON (sorted keys; zero-delta entries omitted)."""
    out = {}
    for key in sorted(set(before) | set(after)):
        delta = round(after.get(key, 0.0) - before.get(key, 0.0), 6)
        if delta != 0:
            out[key] = delta
    return out


def _span_digest(spans) -> str:
    """Deterministic fingerprint of the retained span trees."""
    doc = json.dumps([s.to_dict() for s in spans], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _snapshot(store, counters_before: dict, spans) -> dict:
    snap = store.metrics.snapshot()
    snap["counters"] = _counter_delta(counters_before, store.counters.as_dict())
    snap["spans_digest"] = _span_digest(spans)
    return snap


def _loaded(name: str, ratio: str, n_objects: int, n_requests: int, seed: int):
    """A (6,3) PLM ``name`` store with the load phase done, plus its spec."""
    store, spec = make_scenario(
        name, ratio=ratio, n_objects=n_objects, n_requests=n_requests, seed=seed
    )
    load_store(store, spec)
    return store, spec


def profile_exp1(n_objects: int, n_requests: int, seed: int) -> dict:
    """Basic I/O: every store, 95:5 mix, plus forced degraded reads."""
    out = {}
    for name in ALL_STORES:
        store, spec = _loaded(name, "95:5", n_objects, n_requests, seed)
        before = dict(store.counters.as_dict())
        result = run_requests(store, generate_requests(spec), spec, profile=True)
        spans = list(result.spans)
        if name != "vanilla":  # vanilla has no redundancy to degrade onto
            measure_degraded_reads(store, spec, samples=DEGRADED_SAMPLES)
            spans += store.tracer.drain()
        out[name] = _snapshot(store, before, spans)
    return out


def profile_exp2(n_objects: int, n_requests: int, seed: int) -> dict:
    """Update path: the EC stores under the 50:50 mix."""
    out = {}
    for name in EC_STORES:
        store, spec = _loaded(name, "50:50", n_objects, n_requests, seed)
        before = dict(store.counters.as_dict())
        result = run_requests(store, generate_requests(spec), spec, profile=True)
        out[name] = _snapshot(store, before, result.spans)
    return out


def profile_exp6(n_objects: int, n_requests: int, seed: int) -> dict:
    """Multi-failure degraded reads: two DRAM nodes down, logged-parity
    escalation on every stripe that lost two chunks."""
    store, spec = _loaded("logecmem", "95:5", n_objects, n_requests, seed)
    for nid in store.cluster.dram_ids()[:2]:
        store.cluster.kill(nid)
    init_observability(store)
    before = dict(store.counters.as_dict())
    measure_degraded_reads(store, spec, samples=DEGRADED_SAMPLES)
    return {"logecmem": _snapshot(store, before, store.tracer.drain())}


def profile_exp7(n_objects: int, n_requests: int, seed: int) -> dict:
    """Node repair, with and without log-assist, on one failed DRAM node."""
    store, spec = _loaded("logecmem", "95:5", n_objects, n_requests, seed)
    victim = store.cluster.dram_ids()[0]
    store.cluster.kill(victim)
    init_observability(store)
    before = dict(store.counters.as_dict())
    out = {}
    for assist in (True, False):
        repair = repair_node(store, victim, log_assist=assist)
        label = "logecmem+assist" if assist else "logecmem-noassist"
        out[label] = {
            "repair_time_s": round(repair.repair_time_s, 9),
            "chunks_repaired": repair.chunks_repaired,
            "log_assisted_stripes": repair.log_assisted_stripes,
        }
    out["logecmem"] = _snapshot(store, before, store.tracer.drain())
    return out


def profile_heal(n_objects: int, n_requests: int, seed: int) -> dict:
    """Closed-loop resilience: the seeded heal experiment's headline numbers.

    Violations, op counts, MTTR, availability and the plane's action counts,
    so a control-plane change (slower detection, lost repairs, new rollbacks)
    moves a leaf of the profile golden like any other perf slide.
    """
    doc = run_heal_experiment(n_objects=n_objects, n_requests=n_requests, seed=seed)
    heal = doc["heal"]
    out = {}
    for arm in ("disabled", "enabled"):
        summary = doc[arm]
        out[arm] = {
            key: summary[key]
            for key in (
                "mttr_ms",
                "availability_pct",
                "violations",
                "ops_acked",
                "ops_failed",
                "degraded_reads",
                "fingerprint",
            )
        }
    out["plane"] = {
        "incidents": len(heal["incidents"]),
        "incidents_suppressed": heal["incidents_suppressed"],
        "actions_proposed": heal["actions_proposed"],
        "actions_executed": heal["actions_executed"],
        "actions_deferred": heal["actions_deferred"],
        "rollbacks": heal["rollbacks"],
        "escalations": heal["escalations"],
    }
    out["gains"] = {
        "mttr_improvement_ms": doc["mttr_improvement_ms"],
        "availability_gain_pct": doc["availability_gain_pct"],
    }
    return {"logecmem": out}


def profile_load(n_objects: int, n_requests: int, seed: int) -> dict:
    """Concurrent-engine load curve: one unloaded and one contended point.

    Completions, rejects, flushes, stalls, throughput and the tail quantiles,
    so a queueing change in the engine (or a cost-model change that moves the
    knee) moves a leaf of the profile golden like any latency slide.
    """
    from repro.engine.load import run_load

    doc = run_load(
        n_objects=n_objects, n_requests=n_requests, seed=seed,
        concurrencies=(1, 16),
    )
    out: dict = {}
    for pt in doc["curve"]:
        bp = pt["backpressure"]
        out[f"c{pt['concurrency']}"] = {
            "jobs_completed": pt["jobs_completed"],
            "jobs_rejected": pt["jobs_rejected"],
            "throughput_ops_s": pt["throughput_ops_s"],
            "p50_us": pt["overall"]["p50_us"],
            "p99_us": pt["overall"]["p99_us"],
            "max_us": pt["overall"]["max_us"],
            "flushes": sum(b["flushes"] for b in bp.values()),
            "write_stalls": sum(b["write_stalls"] for b in bp.values()),
        }
    knee = doc["knee"]
    out["knee"] = {
        "p99_amplification": knee["p99_amplification"],
        "hi_over_peak": knee["hi_over_peak"],
    }
    return {"logecmem": out}


PROFILE_FUNCS = {
    "exp1": profile_exp1,
    "exp2": profile_exp2,
    "exp6": profile_exp6,
    "exp7": profile_exp7,
    "heal": profile_heal,
    "load": profile_load,
}


def run_profile(
    experiments: list[str] | tuple[str, ...],
    n_objects: int = 600,
    n_requests: int = 600,
    seed: int = 42,
) -> dict:
    """Run the named profile slices; returns the BENCH document."""
    doc = {
        "meta": {
            "objects": n_objects,
            "requests": n_requests,
            "seed": seed,
            "experiments": sorted(experiments),
        },
        "experiments": {},
    }
    for exp in experiments:
        if exp not in PROFILE_FUNCS:
            raise KeyError(f"unknown profile experiment {exp!r}")
        doc["experiments"][exp] = PROFILE_FUNCS[exp](n_objects, n_requests, seed)
    return doc


def serialise_profile(doc: dict) -> str:
    """Canonical byte-stable serialisation (sorted keys, trailing newline)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_profile(doc: dict) -> str:
    """Plain-text view: per slice and store, the per-op latency table and
    each op's per-phase means."""
    lines = []
    for exp, stores in doc["experiments"].items():
        for store, snap in sorted(stores.items()):
            ops = snap.get("ops")
            if not ops:
                continue
            rows = [
                [op, s["count"], s["mean_us"], s["p50_us"], s["p99_us"]]
                for op, s in ops.items()
                if s.get("count")
            ]
            lines.append(format_table(
                ["op", "count", "mean us", "p50 us", "p99 us"], rows,
                title=f"{exp} / {store}",
            ))
            for op, phases in snap.get("phases", {}).items():
                parts = "  ".join(f"{k}={v:.1f}us" for k, v in phases.items())
                lines.append(f"  {op}: {parts}")
    return "\n".join(lines)


def write_profile(doc: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(serialise_profile(doc))
    return path
