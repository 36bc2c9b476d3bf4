"""Extension: closed-loop throughput under queueing, complementing Figure 10(e,f).

The analytic throughput estimate ignores queueing; this bench derives each
system's per-op station demands from its span trees
(:func:`repro.engine.jobs.derive_jobs`) and replays them through the
concurrent discrete-event engine at three client concurrencies, reporting
achieved throughput plus proxy CPU/NIC utilisation.  The C=1 point per store
must reproduce the sequential runner's total latency."""

import pytest

from repro.analysis import format_table
from repro.baselines import make_store
from repro.bench.runner import load_store, run_workload
from repro.core.config import StoreConfig
from repro.engine import derive_jobs, run_point
from repro.workloads import WorkloadSpec, generate_requests

STORES = ("vanilla", "replication", "ipmem", "fsmem", "logecmem")
N = 800


def _run():
    out = {}
    sequential_s = {}
    spec = WorkloadSpec.read_write("50:50", n_objects=N, n_requests=N, seed=8)
    cfg = StoreConfig(k=10, r=4)
    for name in STORES:
        store = make_store(name, cfg)
        load_store(store, spec)
        jobs = derive_jobs(store, generate_requests(spec))
        for conc in (1, 8, 64):
            out[(name, conc)] = run_point(jobs, cfg.profile, conc)
        result = run_workload(make_store(name, cfg), spec)
        sequential_s[name] = sum(sum(v) for v in result.latencies_s.values())
    return out, sequential_s


def test_ext_closedloop_throughput(benchmark, show):
    out, sequential_s = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for name in STORES:
        for conc in (8, 64):
            r = out[(name, conc)]
            cpu = r.stations.get("proxy_cpu", {}).get("utilisation", 0.0)
            nic = r.stations.get("proxy_nic", {}).get("utilisation", 0.0)
            rows.append([
                name, conc, f"{r.throughput_ops_s / 1e3:.1f}",
                f"{cpu * 100:.0f}%", f"{nic * 100:.0f}%",
                f"{r.overall['mean_us']:.0f}",
            ])
    show(format_table(
        ["store", "clients", "Kops/s", "proxy CPU", "proxy NIC", "response us"],
        rows,
        title="Extension: engine closed-loop throughput, (10,4), r:w=50:50",
    ))
    for name in STORES:
        # C=1: nothing contends, so the engine serialises exactly like the
        # sequential runner
        serial = out[(name, 1)]
        assert serial.jobs_completed == N
        assert serial.makespan_s == pytest.approx(sequential_s[name], rel=1e-9)
        # more clients, more throughput (until a resource saturates)
        assert out[(name, 64)].throughput_ops_s >= out[(name, 8)].throughput_ops_s
    # Figure 10(e,f)'s ordering survives queueing: Vanilla >= EC >= 5-way
    v = out[("vanilla", 64)].throughput_ops_s
    lec = out[("logecmem", 64)].throughput_ops_s
    rep = out[("replication", 64)].throughput_ops_s
    assert v >= lec * 0.999
    assert lec > rep
