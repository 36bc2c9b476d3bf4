"""Workload execution and metric collection.

``make_scenario`` builds the (store, spec) pair every scenario verb runs;
``apply`` executes one request; ``load_store`` performs the paper's load
phase (write every object, FIFO striping); ``run_requests`` replays a request
stream and collects per-op latency statistics; ``run_workload`` does both.
Throughput is estimated from the closed-loop client concurrency and the
mechanistically-counted proxy NIC/CPU loads -- see
:func:`estimate_throughput`, the analytic bound Figure 10(e,f) is
calibrated against.  It ignores queueing; what an op mix
achieves at C contending clients is the engine's number
(:func:`repro.engine.jobs.derive_jobs` -> :func:`repro.engine.load.run_point`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median, pstdev

from repro.baselines import make_store
from repro.core.config import StoreConfig
from repro.core.interface import KVStore, OpResult
from repro.obs import init_observability
from repro.workloads.ycsb import (
    Request,
    WorkloadSpec,
    generate_requests,
    load_keys,
    object_key,
)


@dataclass
class WorkloadResult:
    """Latency/throughput/footprint summary of one run."""

    store: str
    spec: WorkloadSpec
    latencies_s: dict[str, list[float]] = field(default_factory=dict)
    deferred_update_s: float = 0.0  # FSMem's deferred-GC share
    memory_bytes: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    disk_io_count: int = 0
    throughput_ops_s: float = 0.0
    #: populated by ``run_requests(..., profile=True)``
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def op_count(self, op: str) -> int:
        return len(self.latencies_s.get(op, ()))

    def mean_latency_us(self, op: str) -> float:
        lats = self.latencies_s.get(op)
        if not lats:
            return 0.0
        total = sum(lats)
        if op == "update":
            total += self.deferred_update_s
        return total / len(lats) * 1e6

    def median_latency_us(self, op: str) -> float:
        lats = self.latencies_s.get(op)
        return median(lats) * 1e6 if lats else 0.0

    def std_latency_us(self, op: str) -> float:
        """Latency standard deviation.  The network model is deterministic, so
        the spread comes from the ops themselves: a write that seals a
        stripe costs more than one that only queues its object."""
        lats = self.latencies_s.get(op)
        if not lats or len(lats) < 2:
            return 0.0
        return pstdev(lats) * 1e6

    def p95_latency_us(self, op: str) -> float:
        lats = sorted(self.latencies_s.get(op, ()))
        if not lats:
            return 0.0
        return lats[min(len(lats) - 1, int(0.95 * len(lats)))] * 1e6

    def overall_mean_latency_s(self) -> float:
        total = sum(sum(v) for v in self.latencies_s.values()) + self.deferred_update_s
        count = sum(len(v) for v in self.latencies_s.values())
        return total / count if count else 0.0


def estimate_throughput(store: KVStore, result: WorkloadResult) -> float:
    """Closed-loop ops/s bounded by the proxy NIC and CPU.

    throughput = min( concurrency / mean latency,
                      NIC bandwidth / bytes per op,
                      1 / CPU seconds per op )
    with bytes/RPCs per op taken from the run's real counters.
    """
    ops = sum(len(v) for v in result.latencies_s.values())
    if ops == 0:
        return 0.0
    profile = store.cfg.profile
    mean_lat = result.overall_mean_latency_s()
    closed_loop = profile.client_concurrency / mean_lat if mean_lat > 0 else float("inf")
    bytes_per_op = result.counters.get("net_bytes", 0.0) / ops
    nic_bound = (
        profile.net_bandwidth_Bps / bytes_per_op if bytes_per_op > 0 else float("inf")
    )
    rpcs_per_op = result.counters.get("net_rpcs", 0.0) / ops
    cpu_per_op = profile.rpc_overhead_s * rpcs_per_op
    cpu_bound = 1.0 / cpu_per_op if cpu_per_op > 0 else float("inf")
    return min(closed_loop, nic_bound, cpu_bound)


def make_scenario(
    store_name: str = "logecmem",
    scheme: str = "plm",
    k: int = 6,
    r: int = 3,
    value_size: int = 4096,
    ratio: str = "50:50",
    n_objects: int = 600,
    n_requests: int = 600,
    seed: int = 42,
) -> tuple[KVStore, WorkloadSpec]:
    """The nine-parameter run behind every scenario verb and profile slice:
    a fresh ``store_name`` store over a (k, r) code plus the read:update
    ``ratio`` workload spec it will serve."""
    config = StoreConfig(k=k, r=r, value_size=value_size, scheme=scheme)
    spec = WorkloadSpec.read_update(
        ratio,
        n_objects=n_objects,
        n_requests=n_requests,
        value_size=value_size,
        seed=seed,
    )
    return make_store(store_name, config), spec


def apply(store, req: Request) -> OpResult:
    """Execute ``req`` through ``store``'s public op of the same name.

    A free function looking the op up on the store *object* on purpose:
    delegating wrappers (a checked or instrumented store that overrides the
    op methods and forwards everything else) must see every attempt, which a
    ``KVStore`` method resolved on the wrapped store would bypass.
    """
    return getattr(store, req.op.method)(req.key)


def load_store(store: KVStore, spec: WorkloadSpec) -> float:
    """Load phase: insert every object; returns total simulated seconds."""
    total = 0.0
    clock = store.cluster.clock
    for key in load_keys(spec):
        res = store.write(key)
        clock.advance(res.latency_s)
        total += res.latency_s
    return total


def run_requests(
    store: KVStore,
    requests: list[Request],
    spec: WorkloadSpec,
    profile: bool = False,
) -> WorkloadResult:
    """Replay a request stream; returns latency stats and counters.

    With ``profile`` the store's observability is re-initialised first (so
    load-phase writes don't pollute the run-phase histograms) and the result
    carries the retained span trees (``result.spans``) plus the metrics
    snapshot (``result.metrics``: per-op latency quantiles, per-phase means).
    """
    if profile:
        init_observability(store)
    result = WorkloadResult(store=store.name, spec=spec)
    lats = result.latencies_s
    clock = store.cluster.clock
    for req in requests:
        res = apply(store, req)
        clock.advance(res.latency_s)
        lats.setdefault(req.op.method, []).append(res.latency_s)
    # memory is measured in the paper's regime: before any deferred GC/reclaim
    result.memory_bytes = store.memory_logical_bytes
    if profile:
        result.spans = store.tracer.drain()
        result.metrics = store.metrics.snapshot()
    store.finalize()
    result.deferred_update_s = getattr(store, "gc_deferred_s", 0.0)
    result.counters = store.counters.as_dict()
    if hasattr(store.cluster, "disk_stats"):
        result.disk_io_count = store.cluster.disk_stats().io_count
    result.throughput_ops_s = estimate_throughput(store, result)
    return result


def run_workload(store: KVStore, spec: WorkloadSpec) -> WorkloadResult:
    """Load phase + run phase."""
    load_store(store, spec)
    return run_requests(store, generate_requests(spec), spec)


def measure_degraded_reads(
    store: KVStore, spec: WorkloadSpec, samples: int = 200
) -> list[float]:
    """Force-degraded reads over a deterministic key sample (Experiment 1)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    lats = []
    step = max(1, spec.n_objects // samples)
    clock = store.cluster.clock
    for i in range(0, spec.n_objects, step):
        res = store.degraded_read(object_key(i))
        clock.advance(res.latency_s)
        lats.append(res.latency_s)
        if len(lats) >= samples:
            break
    return lats
