"""The four benchmark workloads.

Each workload is closed-loop, one client, one process, one thread.  Its
inputs come from the seed alone; the system under test sees only the
generated requests.  A workload splits one repeat into

* ``setup``    -- untimed: build stores, generate requests, and load the
  store / derive the jobs where the workload does not time that;
* ``timed``    -- the measured section, a fixed number of operations;
* ``sim``      -- simulated-clock results of that repeat (must repeat
  exactly: the runner hashes them across repeats);
* ``epilogue`` -- verification pass only: failure drill and invariants.

Sizes live in :data:`perf.registry.WORKLOADS`; ``scale`` shrinks them for
the smoke tests.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.baselines import make_store
from repro.bench.runner import load_store, measure_degraded_reads, run_requests
from repro.chaos.harness import run_chaos
from repro.chaos.policy import RetryPolicy
from repro.chaos.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.core.config import StoreConfig
from repro.engine.core import exact_quantile
from repro.engine.jobs import derive_jobs
from repro.engine.load import build_jobs, run_point
from repro.heal.plane import ControlPlane
from repro.workloads.ycsb import WorkloadSpec, generate_requests

from perf.registry import WORKLOADS
from perf.verify import Tally, failure_drill, mean_us

ALL_STORES = ("vanilla", "replication", "ipmem", "fsmem", "logecmem")

#: engine telemetry: 1 ms sample grid and a fixed p99 SLO target, so the
#: sampler, the SLO tracker and its journal edges all run during replay
TELEMETRY_INTERVAL_S = 1e-3
SLO_P99_US = 2000.0

#: mean simulated seconds per 50:50 LogECMem request (read 187 us, update
#: 499 us); sizes the chaos drill's horizon without a measuring pre-pass
MEAN_OP_S = 343e-6


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def _identity(store):
    return store


def _request_sim(store, result, load_s: float, n_loaded: int) -> dict:
    """The simulated-clock metrics one sequential LogECMem run yields
    (``load_s`` / ``n_loaded``: the load phase's total latency and writes)."""
    lats = result.latencies_s
    write_s = load_s + sum(lats.get("write", ()))
    n_objects = n_loaded + result.op_count("write")
    all_lats = sorted(x for series in lats.values() for x in series)
    updates = result.op_count("update")
    return {
        "sim_read_us_mean": result.mean_latency_us("read"),
        "sim_update_us_mean": result.mean_latency_us("update"),
        "sim_write_us_mean": write_s / n_objects * 1e6,
        "sim_p99_us": exact_quantile(all_lats, 0.99) * 1e6,
        "sim_throughput_ops_s": result.throughput_ops_s,
        "sim_disk_ios_per_kupdate": result.disk_io_count / updates * 1e3,
        "sim_mem_bytes_per_user_byte": result.memory_bytes
        / (n_objects * store.cfg.value_size),
    }


def drill_schedule(dram_ids, log_ids, horizon_s: float) -> FaultSchedule:
    """One fault of every kind at fixed fractions of the horizon.

    A seeded Poisson schedule would make MTTR a lottery across seeds (which
    faults fire, and whether a crash lands at all); the benchmark wants the
    same incident list every run so the control plane's work -- and the
    simulated MTTR -- is a property of the code, not of the draw.
    """
    h = horizon_s
    return FaultSchedule(
        [
            FaultEvent(0.10 * h, FaultKind.SLOW, dram_ids[1], duration_s=0.10 * h, magnitude=8.0),
            FaultEvent(0.25 * h, FaultKind.CRASH, dram_ids[2]),
            FaultEvent(0.40 * h, FaultKind.BLIP, log_ids[0], duration_s=0.01 * h),
            FaultEvent(0.55 * h, FaultKind.PARTITION, log_ids[1], duration_s=0.03 * h),
            FaultEvent(0.70 * h, FaultKind.STALL, log_ids[0], duration_s=0.02 * h),
            FaultEvent(0.85 * h, FaultKind.BLIP, dram_ids[4], duration_s=0.01 * h),
        ]
    )


class Workload:
    """Base: sizes from the registry, seed and scale from the runner."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.spec = WORKLOADS[self.name]
        k, r = self.spec["code"]
        self.k, self.r = k, r
        self.value_size = self.spec["value_size"]
        self.n_objects = _scaled(self.spec["objects"], scale, 12 * k)
        self.n_requests = _scaled(self.spec["requests"], scale, 200)

    def _count(self, key: str, floor: int = 8) -> int:
        return _scaled(self.spec[key], self.scale, floor)

    def _config(self, **kw) -> StoreConfig:
        return StoreConfig(
            k=self.k, r=self.r, value_size=self.value_size, scheme="plm", **kw
        )

    def _read_update_spec(self, n_objects: int, n_requests: int) -> WorkloadSpec:
        return WorkloadSpec.read_update(
            "50:50",
            n_objects=n_objects,
            n_requests=n_requests,
            value_size=self.value_size,
            seed=self.seed,
        )

    def _drill(self, state, store, **kw) -> dict:
        kw.setdefault("n_degraded", self._count("drill_ops"))
        return failure_drill(
            store,
            state.wspec,
            state.requests,
            n_outage_ops=self._count("drill_ops"),
            tally=state.tally,
            **kw,
        )

    # subclasses: ops, setup(wrap, tally), timed(state), sim(state, out),
    # epilogue(state, out) -> extra sim metrics


class UpdateHeavy(Workload):
    name = "update_heavy"

    @property
    def ops(self) -> int:
        return self.n_requests

    def setup(self, wrap=_identity, tally: Tally | None = None):
        store = wrap(make_store("logecmem", self._config()))
        wspec = self._read_update_spec(self.n_objects, self.n_requests)
        requests = generate_requests(wspec)
        load_s = load_store(store, wspec)
        return SimpleNamespace(
            store=store, wspec=wspec, requests=requests, load_s=load_s, tally=tally
        )

    def timed(self, state):
        return run_requests(state.store, state.requests, state.wspec)

    def sim(self, state, out) -> dict:
        return _request_sim(state.store, out, state.load_s, self.n_objects)

    def epilogue(self, state, out) -> dict:
        drill = self._drill(state, state.store)
        return {
            key: drill[key]
            for key in ("sim_degraded_us_mean", "sim_repair_gib_per_min", "sim_mttr_ms")
        }


class BasicIOFiveStores(Workload):
    name = "basic_io_five_stores"

    @property
    def ops(self) -> int:
        per_store = self.n_objects + self.n_requests
        return len(ALL_STORES) * per_store + (len(ALL_STORES) - 1) * self._count("degraded")

    def setup(self, wrap=_identity, tally: Tally | None = None):
        wspec = WorkloadSpec(
            n_objects=self.n_objects,
            n_requests=self.n_requests,
            read_ratio=0.90,
            update_ratio=0.05,
            write_ratio=0.05,
            value_size=self.value_size,
            seed=self.seed,
        )
        stores = {name: wrap(make_store(name, self._config())) for name in ALL_STORES}
        return SimpleNamespace(
            stores=stores, wspec=wspec, requests=generate_requests(wspec), tally=tally
        )

    def timed(self, state):
        out = {}
        n_degraded = self._count("degraded")
        for name, store in state.stores.items():
            load_s = load_store(store, state.wspec)
            result = run_requests(store, state.requests, state.wspec)
            degraded = (
                []  # vanilla has no redundancy to degrade onto
                if name == "vanilla"
                else measure_degraded_reads(store, state.wspec, samples=n_degraded)
            )
            out[name] = (load_s, result, degraded)
        return out

    def sim(self, state, out) -> dict:
        load_s, result, degraded = out["logecmem"]
        sim = _request_sim(state.stores["logecmem"], result, load_s, self.n_objects)
        sim["sim_degraded_us_mean"] = mean_us(degraded)
        # the baselines ride along in the digest so a host-time change that
        # bends *their* cost model is caught too
        for name in ALL_STORES[:-1]:
            _, res, deg = out[name]
            sim[f"{name}.read_us_mean"] = res.mean_latency_us("read")
            sim[f"{name}.update_us_mean"] = res.mean_latency_us("update")
            sim[f"{name}.throughput_ops_s"] = res.throughput_ops_s
            if deg:
                sim[f"{name}.degraded_us_mean"] = mean_us(deg)
        return sim

    def epilogue(self, state, out) -> dict:
        for name in ("ipmem", "fsmem"):
            state.tally.record_scrub(state.stores[name])
            state.tally.record_invariants(state.stores[name])
        drill = self._drill(state, state.stores["logecmem"])
        return {key: drill[key] for key in ("sim_repair_gib_per_min", "sim_mttr_ms")}


class DegradedWideLarge(Workload):
    name = "degraded_wide_large"

    @property
    def ops(self) -> int:
        return (
            self.n_objects
            + self.n_requests
            + self._count("degraded")
            + min(self._count("drill_ops"), self.n_requests)
        )

    def setup(self, wrap=_identity, tally: Tally | None = None):
        store = wrap(make_store("logecmem", self._config(payload_scale=1.0)))
        wspec = self._read_update_spec(self.n_objects, self.n_requests)
        return SimpleNamespace(
            store=store, wspec=wspec, requests=generate_requests(wspec), tally=tally
        )

    def timed(self, state):
        load_s = load_store(state.store, state.wspec)
        result = run_requests(state.store, state.requests, state.wspec)
        drill = self._drill(
            state,
            state.store,
            n_degraded=self._count("degraded"),
            kills=2,
            both_repair_modes=True,
            invariants=False,
        )
        return load_s, result, drill

    def sim(self, state, out) -> dict:
        load_s, result, drill = out
        sim = _request_sim(state.store, result, load_s, self.n_objects)
        sim.update(drill)
        return sim

    def epilogue(self, state, out) -> dict:
        state.tally.record_invariants(state.store)
        return {}


class EngineLoadChaos(Workload):
    name = "engine_load_chaos"

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.chaos_objects = _scaled(self.spec["chaos_objects"], scale, 12 * self.k)
        self.chaos_requests = _scaled(self.spec["chaos_requests"], scale, 800)
        self.concurrencies = self.spec["concurrencies"]

    @property
    def ops(self) -> int:
        return (
            (len(self.concurrencies) + 1) * self.n_requests
            + self.chaos_requests
            + self._count("probe_degraded")
        )

    def setup(self, wrap=_identity, tally: Tally | None = None):
        jobs, profile, dram_ids, log_ids = build_jobs(
            k=self.k, r=self.r, value_size=self.value_size,
            n_objects=self.n_objects, n_requests=self.n_requests, seed=self.seed,
        )
        if tally is not None:
            # the checked pass derives the jobs again through a CheckedStore
            # (reads verified) and must land on the identical job stream
            store = wrap(make_store("logecmem", self._config()))
            wspec = self._read_update_spec(self.n_objects, self.n_requests)
            load_store(store, wspec)
            if derive_jobs(store, generate_requests(wspec)) != jobs:
                tally.fail(1, "checked derive_jobs differs from build_jobs")
        chaos_store = wrap(make_store("logecmem", self._config()))
        chaos_spec = self._read_update_spec(self.chaos_objects, self.chaos_requests)
        return SimpleNamespace(
            jobs=jobs, profile=profile, dram_ids=dram_ids, log_ids=log_ids,
            chaos_store=chaos_store, chaos_spec=chaos_spec, tally=tally,
        )

    def _point(self, state, c: int, faults=None):
        return run_point(
            state.jobs,
            state.profile,
            c,
            faults=faults,
            telemetry_interval_s=TELEMETRY_INTERVAL_S,
            slo_p99_us=SLO_P99_US,
        )

    def timed(self, state):
        points = {c: self._point(state, c) for c in self.concurrencies}
        faulted = self._point(
            state,
            16,
            faults=drill_schedule(state.dram_ids, state.log_ids, points[16].makespan_s),
        )
        report = run_chaos(
            state.chaos_store,
            state.chaos_spec,
            schedule=drill_schedule(
                state.dram_ids, state.log_ids, self.chaos_requests * MEAN_OP_S
            ),
            policy=RetryPolicy(max_retries=6),
            control_plane=ControlPlane(),
        )
        # probe the healed store: forced degraded reads must still decode
        # (and give sim_degraded_us_mean samples whatever the faults hit)
        measure_degraded_reads(
            state.chaos_store, state.chaos_spec, samples=self._count("probe_degraded")
        )
        return points, faulted, report

    def sim(self, state, out) -> dict:
        points, faulted, report = out
        store = state.chaos_store
        # exact histogram sums rather than the report's rounded summary
        lat = store.metrics.op_latency
        repairs = [ev["attrs"] for ev in report.events if ev["kind"] == "repair_done"]
        repaired_gib = sum(a["chunks"] for a in repairs) * store.cfg.chunk_size / (1 << 30)
        repair_min = sum(a["repair_time_s"] for a in repairs) / 60.0
        return {
            "sim_read_us_mean": lat["read"].mean_s * 1e6,
            "sim_update_us_mean": lat["update"].mean_s * 1e6,
            "sim_write_us_mean": lat["write"].mean_s * 1e6,
            "sim_degraded_us_mean": lat["degraded_read"].mean_s * 1e6,
            "sim_p99_us": points[16].overall["p99_us"],
            "sim_throughput_ops_s": max(p.throughput_ops_s for p in points.values()),
            "sim_disk_ios_per_kupdate": store.cluster.disk_stats().io_count
            / lat["update"].count * 1e3,
            "sim_mem_bytes_per_user_byte": store.memory_logical_bytes
            / (self.chaos_objects * self.value_size),
            "sim_repair_gib_per_min": repaired_gib / repair_min,
            "sim_mttr_ms": report.mttr_s * 1e3,
            "faulted.p99_us": faulted.overall["p99_us"],
            "faulted.makespan_s": faulted.makespan_s,
            "chaos.fingerprint": report.fingerprint(),
        }

    def epilogue(self, state, out) -> dict:
        points, faulted, report = out
        tally = state.tally
        for result in (*points.values(), faulted):
            tally.attempted += result.jobs_total
            tally.fail(result.jobs_rejected, f"engine C={result.concurrency} rejected")
            tally.fail(
                result.jobs_total - result.jobs_completed - result.jobs_rejected,
                f"engine C={result.concurrency} never completed",
            )
        # store ops the chaos run issued were counted by the CheckedStore;
        # what the proxy gave up on and what the invariant sweep found are not
        tally.fail(report.ops_failed, "chaos op not acked")
        tally.fail(report.violations, "chaos invariant violation")
        tally.attempted += report.invariants.get("objects_checked", 0)
        return {}


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (UpdateHeavy, BasicIOFiveStores, DegradedWideLarge, EngineLoadChaos)
}
