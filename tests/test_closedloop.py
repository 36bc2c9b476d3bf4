"""Closed-loop queueing properties of the engine: C clients behind one proxy.

Hand-built :class:`JobSpec`\\ s pin each regime (CPU-bound, NIC-bound,
overlap-dominated); the last test runs a real store's derived jobs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_store
from repro.bench.runner import load_store, run_workload
from repro.core.config import StoreConfig
from repro.engine import JobSpec, Stage, derive_jobs, run_point
from repro.sim.params import HardwareProfile
from repro.workloads import WorkloadSpec, generate_requests


def _job(profile, cpu_s, nic_bytes, remote_s):
    """Proxy CPU, then ``nic_bytes`` through the proxy NIC, then a remote
    remainder that overlaps freely across clients."""
    return JobSpec(
        op="op",
        stages=(
            Stage("proxy_cpu", cpu_s),
            Stage("proxy_nic", nic_bytes / profile.net_bandwidth_Bps),
            Stage("delay", remote_s),
        ),
    )


def test_single_client_serialises():
    """C=1: makespan is the sum of op latencies; no overlap."""
    p = HardwareProfile()
    res = run_point([_job(p, 1e-3, 0, 2e-3)] * 10, p, concurrency=1)
    assert res.makespan_s == pytest.approx(10 * 3e-3)
    assert res.throughput_ops_s == pytest.approx(1 / 3e-3, rel=1e-6)
    assert res.overall["mean_us"] == pytest.approx(3e3)


def test_concurrency_overlaps_remote_time():
    """Remote time overlaps across clients; CPU does not."""
    p = HardwareProfile()
    jobs = [_job(p, 1e-3, 0, 9e-3)] * 100
    serial = run_point(jobs, p, concurrency=1)
    parallel = run_point(jobs, p, concurrency=10)
    assert parallel.throughput_ops_s > 5 * serial.throughput_ops_s
    # at C=10, CPU is saturated: throughput -> 1/cpu_s
    assert parallel.throughput_ops_s == pytest.approx(1e3, rel=0.1)
    assert parallel.stations["proxy_cpu"]["utilisation"] > 0.9


def test_nic_bound_regime():
    p = HardwareProfile(net_bandwidth_Bps=1e6)
    res = run_point([_job(p, 0.0, 10_000, 1e-3)] * 200, p, concurrency=64)
    # NIC service time = 10ms per op; throughput ~ 100 ops/s
    assert res.throughput_ops_s == pytest.approx(100, rel=0.05)
    assert res.stations["proxy_nic"]["utilisation"] > 0.95


def test_more_concurrency_never_hurts_throughput():
    p = HardwareProfile()
    jobs = [_job(p, 5e-4, 4096, 4e-3)] * 300
    t = [run_point(jobs, p, concurrency=c).throughput_ops_s for c in (1, 4, 16, 64)]
    assert t == sorted(t)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e-3),
            st.integers(min_value=0, max_value=100_000),
            st.floats(min_value=0, max_value=1e-2),
        ),
        min_size=1,
        max_size=50,
    ),
    st.integers(min_value=1, max_value=32),
)
def test_simulation_invariants(raw, concurrency):
    p = HardwareProfile()
    jobs = [_job(p, c, b, r) for c, b, r in raw]
    res = run_point(jobs, p, concurrency=concurrency)
    assert res.jobs_completed == len(jobs)
    assert res.makespan_s >= max(j.service_s for j in jobs) - 1e-12
    for station in res.stations.values():
        assert 0 <= station["utilisation"] <= 1
    assert res.overall["mean_us"] >= 0


def test_des_throughput_within_resource_bounds():
    """Every shared station caps engine throughput; queueing can't exceed it."""
    cfg = StoreConfig(k=4, r=3, payload_scale=1 / 32)
    spec = WorkloadSpec.read_update("80:20", n_objects=200, n_requests=300, seed=4)
    store = make_store("logecmem", cfg)
    load_store(store, spec)
    jobs = derive_jobs(store, generate_requests(spec))
    assert len(jobs) == 300
    p = cfg.profile
    res = run_point(jobs, p, concurrency=p.client_concurrency)
    demand_s: dict[str, float] = {}
    for job in jobs:
        for stage in job.stages:
            if stage.station != "delay":
                demand_s[stage.station] = (
                    demand_s.get(stage.station, 0.0) + stage.service_s
                )
    bound = min(len(jobs) / s for s in demand_s.values())
    assert res.throughput_ops_s <= bound * 1.001
    # and it's in the same regime as the analytic estimate
    analytic = run_workload(make_store("logecmem", cfg), spec).throughput_ops_s
    assert 0.3 * analytic < res.throughput_ops_s < 3 * analytic
