"""Fixed-work slices: one direct call loop per layer function, host clock.

Each slice calls a layer's public functions in a tight loop on a fixed input
and reports best-of-five throughput, every timed batch lasting at least
``min_batch_s``.  A slice says how fast a layer *can* go in isolation; the
traced run's ``self_share`` says how much of a workload it *is*.  A slice
moving without its ``self_share`` workload moving is the expected outcome
when the layer is a small share of that workload (see perf/README.md).

Names, units and the end-to-end metric each slice should move are declared
in :data:`perf.registry.SLICES`; ``run_slices`` returns exactly those names.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

import numpy as np

from repro.baselines import make_store
from repro.bench.runner import load_store
from repro.chaos.harness import run_chaos
from repro.chaos.invariants import check_store
from repro.cluster.node import LogNode
from repro.core.config import StoreConfig
from repro.core.recovery import crash_log_node, recover_log_node
from repro.core.repair import repair_node
from repro.core.scrub import scrub
from repro.ec.delta import ParityDelta, merge_parity_deltas
from repro.ec.gf256 import gf_mul_scalar
from repro.ec.rs import RSCode
from repro.engine.jobs import derive_jobs
from repro.engine.load import run_point
from repro.heal.plane import ControlPlane
from repro.kvstore.chunk import make_value
from repro.kvstore.memtable import MemTable
from repro.logstore import make_scheme
from repro.logstore.buffer import LogBuffer
from repro.logstore.records import LogRecord
from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer
from repro.obs.timeseries import SLOTracker, TelemetrySampler
from repro.sim.clock import SimClock
from repro.sim.disk import DiskModel
from repro.sim.events import EventQueue
from repro.sim.network import NetworkModel
from repro.sim.params import HardwareProfile
from repro.sim.resources import Counters
from repro.workloads.ycsb import WorkloadSpec, generate_requests, load_keys

from perf.registry import SLICES
from perf.workloads import SLO_P99_US, TELEMETRY_INTERVAL_S, drill_schedule

SEED = 7  # slice inputs are fixed: slices compare code, not seeds


REPS = 5


class Budget:
    """How long to measure: best of ``REPS`` batches of >= ``min_batch_s``."""

    def __init__(self, min_batch_s: float):
        self.min_batch_s = min_batch_s

    def best_seconds(self, batch, prepare=None) -> float:
        """Best seconds per ``batch(fixture)`` call; ``prepare()`` builds an
        untimed fresh fixture for each call of a batch that consumes one."""

        def once() -> float:
            fixture = prepare() if prepare is not None else None
            t0 = perf_counter()
            batch(fixture)
            return perf_counter() - t0

        first = once()  # also warms caches and lazy set-up
        calls = max(1, math.ceil(self.min_batch_s / max(first, 1e-9)))
        best = math.inf
        for _ in range(REPS):
            gc.collect()
            best = min(best, sum(once() for _ in range(calls)) / calls)
        return best

    def rate(self, units: float, batch, prepare=None) -> float:
        return units / self.best_seconds(batch, prepare)


def _rng():
    return np.random.default_rng(SEED)


def _loaded(name: str = "logecmem", n_objects: int = 600, **cfg):
    store = make_store(name, StoreConfig(k=6, r=3, value_size=4096, scheme="plm", **cfg))
    spec = WorkloadSpec.read_update(
        "50:50", n_objects=n_objects, n_requests=1000, value_size=4096, seed=SEED
    )
    load_store(store, spec)
    return store, spec


# ----------------------------------------------------------------------- ec


def ec_slices(b: Budget) -> dict:
    rng = _rng()
    out = {}
    buf = rng.integers(0, 256, size=1 << 20, dtype=np.uint8)
    out["ec.gf_mul_scalar_mb_s"] = b.rate(buf.size / 1e6, lambda _: gf_mul_scalar(0x53, buf))

    for k, r, size, label in ((6, 3, 4096, "6_3_4k"), (10, 4, 16384, "10_4_16k")):
        code = RSCode(k, r)
        data = rng.integers(0, 256, size=(k, size), dtype=np.uint8)
        out[f"ec.encode_{label}_mb_s"] = b.rate(
            k * size / 1e6, lambda _, c=code, d=data: c.encode(d)
        )
    parity = code.encode(data)  # the (10,4) 16 KiB stripe
    two_lost = {i: data[i] for i in range(2, 10)} | {10: parity[0], 11: parity[1]}
    out["ec.decode2_10_4_16k_mb_s"] = b.rate(
        data.size / 1e6, lambda _: code.decode(two_lost, wanted=[0, 1])
    )
    one_lost = {i: data[i] for i in range(1, 10)} | {10: parity[0]}
    out["ec.xor_repair_mb_s"] = b.rate(
        data.size / 1e6, lambda _: code.repair_with_xor(0, one_lost)
    )
    delta = rng.integers(0, 256, size=4096, dtype=np.uint8)

    def parity_deltas(_):
        for i in range(100):
            code.parity_delta(1 + i % 3, i % 10, delta)

    out["ec.parity_delta_mb_s"] = b.rate(100 * delta.size / 1e6, parity_deltas)
    deltas = [
        ParityDelta(1, 1, int(off), rng.integers(0, 256, 512, dtype=np.uint8))
        for off in rng.integers(0, 4096 - 512, size=64)
    ]
    out["ec.delta_merge_per_s"] = b.rate(1, lambda _: merge_parity_deltas(deltas))
    return out


# ------------------------------------------------------- kvstore / workloads


def kvstore_slices(b: Budget) -> dict:
    keys = load_keys(WorkloadSpec(n_objects=1000, n_requests=0))

    def values(_):
        for i, key in enumerate(keys):
            make_value(key, i & 3, 256)

    def setget(_):
        table = MemTable()
        for key in keys:
            table.set(key, 4096)
        for key in keys:
            table.get(key)

    return {
        "kvstore.make_value_per_s": b.rate(len(keys), values),
        "kvstore.memtable_setget_per_s": b.rate(2 * len(keys), setget),
    }


def workloads_slices(b: Budget) -> dict:
    spec = WorkloadSpec.read_update(
        "50:50", n_objects=1000, n_requests=5000, value_size=4096, seed=SEED
    )
    return {
        "workloads.generate_requests_per_s": b.rate(
            spec.n_requests, lambda _: generate_requests(spec)
        )
    }


# -------------------------------------------------------- cluster / logstore


def _log_records(
    n_stripes: int = 32, deltas_per_stripe: int = 8
) -> tuple[list[LogRecord], list[LogRecord]]:
    """(base chunks, deltas): one 256-byte (4096 logical) parity chunk per
    stripe and ``deltas_per_stripe`` 64-byte (1024 logical) deltas on it."""
    rng = _rng()
    bases = [
        LogRecord.for_chunk(sid, 1, rng.integers(0, 256, 256, dtype=np.uint8), 4096)
        for sid in range(n_stripes)
    ]
    deltas = []
    for seq in range(deltas_per_stripe):
        for sid in range(n_stripes):
            payload = rng.integers(0, 256, 64, dtype=np.uint8)
            delta = ParityDelta(sid, 1, int(rng.integers(0, 192)), payload, seq=seq)
            deltas.append(LogRecord.for_delta(delta, 1024))
    return bases, deltas


def log_slices(b: Budget) -> dict:
    profile = HardwareProfile()
    bases, deltas = _log_records()
    records = bases + deltas
    out = {}

    def appends(node):
        for i, rec in enumerate(records):
            node.append(rec, i * 1e-4)

    out["cluster.lognode_append_per_s"] = b.rate(
        len(records),
        appends,
        prepare=lambda: LogNode("log0", profile, scheme="plm", bytes_scale=16.0, merge_buffer=False),
    )

    def adds(_):
        buffer = LogBuffer(1 << 30, 1 << 30, merge=False)
        for rec in records:
            buffer.add(rec)
        buffer.drain()

    out["logstore.buffer_add_per_s"] = b.rate(len(records), adds)

    def fresh_scheme(name):
        return make_scheme(name, DiskModel(profile), bytes_scale=16.0)

    def flushes(scheme, batches=8):
        scheme.flush(records, 0.0)
        for batch in range(1, batches):  # several, so PLM's lazy merge fires
            scheme.flush(deltas, batch * 1e-3)

    flushed = len(records) + 7 * len(deltas)
    for name, label in (("pl", "pl"), ("plr", "plr"), ("plr-m", "plrm"), ("plm", "plm")):
        out[f"logstore.{label}.flush_records_per_s"] = b.rate(
            flushed, flushes, prepare=lambda n=name: fresh_scheme(n)
        )
    for name in ("pl", "plm"):
        scheme = fresh_scheme(name)
        flushes(scheme, batches=4)

        def reads(_, s=scheme):
            for sid in range(32):
                s.read_parity(sid, 1, 256, 1.0)

        out[f"logstore.{name}.read_parity_per_s"] = b.rate(32, reads)
    return out


# ------------------------------------------------------------------ sim / obs


def sim_slices(b: Budget) -> dict:
    profile = HardwareProfile()
    out = {}

    def events(_):
        queue = EventQueue()
        fired = []
        for i in range(2000):
            queue.schedule((i * 7919 % 2000) * 1e-6, fired.append)
        queue.drain()

    out["sim.eventqueue_events_per_s"] = b.rate(2000, events)
    net = NetworkModel(profile, Counters())
    nodes = ["dram0", "dram1", "log0"]

    def network(_):
        for _i in range(500):
            net.client_hop(4160)
            net.sequential_gets([4096], node_ids=nodes[:1])
            net.parallel_puts([4096, 4096, 4096], node_ids=nodes)

    out["sim.network_call_per_s"] = b.rate(1500, network)
    disk = DiskModel(profile)

    def disk_calls(_):
        for i in range(1000):
            disk.write(4096, sequential=True, now=i * 1e-3)
            disk.read(4096, sequential=False, now=i * 1e-3)

    out["sim.disk_call_per_s"] = b.rate(2000, disk_calls)
    counters = Counters()

    def adds(_):
        for _i in range(2500):
            counters.add("net_rpcs")
            counters.add("net_messages", 2)
            counters.add("net_bytes", 4160)
            counters.add("chunk_reads")

    out["sim.counters_add_per_s"] = b.rate(10000, adds)
    return out


def obs_slices(b: Budget) -> dict:
    out = {}
    tracer = Tracer(SimClock())

    def one_span():
        span = tracer.start("read", key="user0000000000000001")
        span.child("client_hop", 1e-4)
        span.child("fetch_object", 8e-5, node="dram0")
        return tracer.finish(span, 1.8e-4)

    def spans(_):
        for _i in range(1000):
            one_span()

    out["obs.span_per_s"] = b.rate(1000, spans)
    finished = one_span()
    registry = MetricsRegistry()

    def observes(_):
        for _i in range(1000):
            registry.observe_span(finished)

    out["obs.observe_span_per_s"] = b.rate(1000, observes)
    journal = EventJournal(SimClock(), Counters())

    def emits(_):
        for _i in range(1000):
            journal.emit(
                "log_flush", node="log0", scheme="plm", records=3, nbytes=12288, duration_s=1e-4
            )

    out["obs.journal_emit_per_s"] = b.rate(1000, emits)

    def ticks(_):
        counters = Counters()
        ring = EventJournal(SimClock(), counters)
        sampler = TelemetrySampler(
            TELEMETRY_INTERVAL_S,
            journal=ring,
            counters=counters,
            slo=SLOTracker(SLO_P99_US, journal=ring, counters=counters),
        )

        def probe(t, s):
            for i in range(8):
                s.gauge(f"station.nic:dram{i}.util").record(t, 0.5)

        sampler.add_probe(probe)
        for i in range(1, 501):
            t = i * TELEMETRY_INTERVAL_S
            for j in range(4):
                sampler.observe_op(t, 3e-4 + j * 1e-3, "read")
            sampler.sample(t)

    out["obs.telemetry_tick_per_s"] = b.rate(500, ticks)
    return out


# ------------------------------------------------------------ core / baselines


def _cycle(op, keys, n):
    for i in range(n):
        op(keys[i % len(keys)])


def _store_op_slices(b: Budget, name: str, prefix: str) -> dict:
    """write/read/update throughput of one store (fresh store per write batch)."""
    store, spec = _loaded(name)
    keys = load_keys(spec)
    fresh_keys = [f"fresh{i:06d}" for i in range(300)]
    return {
        f"{prefix}.write_per_s": b.rate(
            len(fresh_keys),
            lambda s: _cycle(s.write, fresh_keys, len(fresh_keys)),
            prepare=lambda: _loaded(name, n_objects=72)[0],
        ),
        f"{prefix}.read_per_s": b.rate(1000, lambda _: _cycle(store.read, keys, 1000)),
        f"{prefix}.update_per_s": b.rate(500, lambda _: _cycle(store.update, keys, 500)),
    }


def core_slices(b: Budget) -> dict:
    out = _store_op_slices(b, "logecmem", "core")
    store, spec = _loaded()
    keys = load_keys(spec)
    out["core.delete_per_s"] = b.rate(
        200,
        lambda s: _cycle(s.delete, keys, 200),
        prepare=lambda: _loaded(n_objects=300)[0],
    )
    out["core.degraded1_per_s"] = b.rate(
        200, lambda _: _cycle(store.degraded_read, keys, 200)
    )
    store.cluster.kill("dram0")
    out["core.degraded2_per_s"] = b.rate(
        200, lambda _: _cycle(store.degraded_read, keys, 200)
    )
    chunks = repair_node(store, "dram0").chunks_repaired
    out["core.repair_chunks_per_s"] = b.rate(chunks, lambda _: repair_node(store, "dram0"))
    store.cluster.restore("dram0")
    stripes = scrub(store).stripes_checked
    out["core.scrub_stripes_per_s"] = b.rate(stripes, lambda _: scrub(store))

    def recover(_):
        crash_log_node(store.cluster.log_nodes["log0"])
        return recover_log_node(store, "log0")

    out["core.recover_lognode_per_s"] = b.rate(recover(None).parities_rebuilt, recover)
    return out


def baseline_slices(b: Budget) -> dict:
    out = {}
    for name in ("vanilla", "replication", "ipmem", "fsmem"):
        out.update(_store_op_slices(b, name, f"baselines.{name}"))
    return out


# ------------------------------------------------------ engine / chaos / heal


def engine_slices(b: Budget) -> dict:
    out = {}
    store, spec = _loaded()
    requests = generate_requests(spec)
    out["engine.derive_jobs_per_s"] = b.rate(
        len(requests), lambda _: derive_jobs(store, requests)
    )
    jobs = derive_jobs(store, requests)
    profile = store.cfg.profile
    for c in (1, 64):
        out[f"engine.replay_c{c}_jobs_per_s"] = b.rate(
            len(jobs), lambda _, c=c: run_point(jobs, profile, c)
        )
    # events per replay: counted once with a counting shim around schedule
    scheduled = [0]
    original = EventQueue.schedule

    def counting(self, when, callback):
        scheduled[0] += 1
        original(self, when, callback)

    EventQueue.schedule = counting
    try:
        run_point(jobs, profile, 16)
    finally:
        EventQueue.schedule = original
    off_s = b.best_seconds(lambda _: run_point(jobs, profile, 16))
    on_s = b.best_seconds(
        lambda _: run_point(
            jobs, profile, 16,
            telemetry_interval_s=TELEMETRY_INTERVAL_S, slo_p99_us=SLO_P99_US,
        )
    )
    out["engine.events_per_s"] = scheduled[0] / off_s
    out["engine.telemetry_cost_share"] = on_s / off_s - 1.0
    return out


def chaos_heal_slices(b: Budget) -> dict:
    out = {}
    spec = WorkloadSpec.read_update(
        "50:50", n_objects=300, n_requests=600, value_size=4096, seed=SEED
    )

    def fresh():
        return make_store("logecmem", StoreConfig(k=6, r=3, value_size=4096, scheme="plm"))

    def chaos(store):
        schedule = drill_schedule(
            store.cluster.dram_ids(), store.cluster.log_ids(), spec.n_requests * 343e-6
        )
        run_chaos(store, spec, schedule=schedule, control_plane=ControlPlane())

    out["chaos.ops_per_s"] = b.rate(spec.n_objects + spec.n_requests, chaos, prepare=fresh)
    store, _ = _loaded()
    out["chaos.check_store_s"] = b.best_seconds(lambda _: check_store(store))
    plane = ControlPlane().attach(store)
    now = store.cluster.clock.now

    def polls(_):
        for i in range(500):
            plane.poll(now + i * 1e-6)

    out["heal.poll_per_s"] = b.rate(500, polls)
    return out


GROUPS = (
    ec_slices,
    kvstore_slices,
    workloads_slices,
    log_slices,
    sim_slices,
    obs_slices,
    core_slices,
    baseline_slices,
    engine_slices,
    chaos_heal_slices,
)


def run_slices(min_batch_s: float) -> dict:
    """Every slice in :data:`perf.registry.SLICES`, name -> value."""
    budget = Budget(min_batch_s)
    out: dict = {}
    for group in GROUPS:
        out.update(group(budget))
    if set(out) != set(SLICES):
        raise RuntimeError(
            f"slices out of step with the registry: {sorted(set(out) ^ set(SLICES))}"
        )
    return {name: out[name] for name in SLICES}
