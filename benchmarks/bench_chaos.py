"""Chaos harness benchmark: every store survives the same seeded fault
schedule; reports availability, degraded-read share and invariant counts.

Not a paper figure -- this exercises the fault-injection subsystem end to end
and doubles as a robustness comparison across the five stores: replication
degrades reads for free, the erasure-coded stores pay decode costs, LogECMem
additionally recovers its log nodes.  A control plane repairs what the
faults break.
"""

from repro.analysis import format_table
from repro.baselines import make_store
from repro.chaos import run_chaos
from repro.core import StoreConfig
from repro.heal import ControlPlane
from repro.workloads import WorkloadSpec

N_OBJECTS = 600
N_REQUESTS = 900
STORES = ["vanilla", "replication", "ipmem", "fsmem", "logecmem"]


def _run():
    rows = []
    for name in STORES:
        store = make_store(name, StoreConfig(k=4, r=3, scheme="plm"))
        spec = WorkloadSpec(
            n_objects=N_OBJECTS, n_requests=N_REQUESTS, seed=42,
            read_ratio=0.5, update_ratio=0.5,
        )
        report = run_chaos(store, spec, expected_faults=6.0,
                           control_plane=ControlPlane())
        rows.append({
            "store": name,
            "acked": report.ops_acked,
            "failed": report.ops_failed,
            "degraded": report.degraded_reads,
            "retries": report.retries,
            "faults": sum(report.faults_fired.values()),
            "actions": len(report.heal["executed"]),
            "availability_pct": report.availability * 100,
            "violations": report.violations,
            "fingerprint": report.fingerprint(),
        })
    return rows


def test_chaos_all_stores(benchmark, show):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    show(format_table(
        ["store", "acked", "failed", "degraded", "retries", "faults",
         "actions", "avail %", "violations"],
        [[r["store"], r["acked"], r["failed"], r["degraded"], r["retries"],
          r["faults"], r["actions"], f"{r['availability_pct']:.2f}",
          r["violations"]] for r in rows],
        title=f"Chaos drill: seed 42, ~6 faults, {N_REQUESTS} requests",
    ))

    for r in rows:
        assert r["violations"] == 0, r["store"]
        assert r["acked"] + r["failed"] >= N_REQUESTS - r["failed"]
        assert r["faults"] > 0, "the schedule must actually fire"
    # fault tolerance is the point: the redundant stores serve degraded reads
    assert any(r["degraded"] > 0 for r in rows if r["store"] != "vanilla")
    # reproducibility: rerunning one store yields the same fingerprint
    store = make_store("logecmem", StoreConfig(k=4, r=3, scheme="plm"))
    spec = WorkloadSpec(
        n_objects=N_OBJECTS, n_requests=N_REQUESTS, seed=42,
        read_ratio=0.5, update_ratio=0.5,
    )
    again = run_chaos(store, spec, expected_faults=6.0,
                      control_plane=ControlPlane())
    ref = next(r for r in rows if r["store"] == "logecmem")
    assert again.fingerprint() == ref["fingerprint"]
