"""Host-independent cost of one LogECMem op: Python + C calls per op.

Wall-clock ratios on a shared host swing by +-20 % between runs, so a gain of
that size cannot be gated on them.  Function calls are the per-op fixed
overhead that dominates small-object stores, and cProfile counts them
exactly, the same on every host.

How the numbers are taken: a (6,3) LogECMem store with 4 KiB values and the
PLM scheme -- the ``update_heavy`` benchmark workload -- is loaded with that
workload's seed-42 objects by ``load_store``.  Then the first ``OPS``
requests of its seed-42 stream run one by one, each inside its own cProfile
enable/disable; ``total_calls`` per op kind, minus the one profiler
``disable`` call each op adds, is divided by the number of ops of that kind
(about half the slice each).  Counts are amortised: the update that fills a
log buffer pays for its flush, and the flush that fills PLM's staging extent
pays for the lazy merge.

Measured on CPython 3.11 with numpy 2.4: update 137.3, read 42.0 calls (145.3
and 42.0 while ``make_value`` still seeded numpy's ``SeedSequence``, whose
Python-level helpers cost about a dozen calls per update; 245.1 and 52.0
before the log path was cut).  The budgets leave about 5 calls of margin.
CPython 3.12 inlines list comprehensions (PEP 709), so it counts fewer calls
than 3.11, never more.

The load phase is gated per loaded object: ``load_store`` on the same spec
(3 000 objects, (6,3), 4 KiB, seed 42) inside one cProfile enable/disable,
``total_calls`` minus the ``disable`` call, divided by the objects loaded.
It measured 106.0 calls per object; 166.0 before the write path was cut and
157.0 with only ``make_value``'s ``SeedSequence`` gone.  ``load_store``
still calls ``store.write`` once per key, so a delegating wrapper sees every
write: the calls are cut inside the one write path, not by a bulk one.

A run's inputs are gated the same way.  ``generate_requests`` on the
``basic_io_five_stores`` spec (1 000 objects, 8 000 requests, 90:5:5, seed
42) measured 0.286 calls per request (3.12 before one ``Request`` per
distinct (op, key) pair); ring points are a pure function of the node id, so
a second (6,3) LogECMem store in one process hashes none of them (448 md5
calls before) and measured 579 calls in all (2 812 before).

So is the telemetry sampler the engine drives.  One engine point at
``engine_load_chaos``'s telemetry settings (1 ms sample grid, SLO target
2 000 us, C = 16) replays 2 000 jobs of a 600-object seed-42 50:50 stream;
each ``observe_op`` and each ``sample`` runs inside its own cProfile
enable/disable.  Measured on CPython 3.11: 4.0 calls per completed job under
``observe_op`` and 197.6 per tick under ``sample``, the engine's probe of 43
gauges included.  The sampler with one class per series kind measured 6.0
and 199.4: its counter ``bump`` and quantile ``observe`` per op, and its
window ``flush`` and ``record_at`` per tick, are the sampler's own fields
now.  The budgets sit below those older counts.
"""

import cProfile
import pstats

from repro.baselines import make_store
from repro.bench.runner import load_store
from repro.core.config import StoreConfig
from repro.engine.load import build_jobs, run_point
from repro.obs.timeseries import TelemetrySampler
from repro.workloads.ycsb import WorkloadSpec, generate_requests

OPS = 12_000
UPDATE_BUDGET = 142
READ_BUDGET = 47
LOAD_BUDGET_PER_OBJECT = 110
GENERATE_BUDGET_PER_REQUEST = 0.35
SECOND_STORE_BUDGET = 650
OBSERVE_OP_BUDGET = 4.5
SAMPLE_BUDGET = 199.0


def _update_heavy():
    store = make_store("logecmem", StoreConfig(k=6, r=3, value_size=4096, scheme="plm"))
    spec = WorkloadSpec.read_update(
        "50:50", n_objects=3000, n_requests=24_000, value_size=4096, seed=42
    )
    return store, spec


def calls_per_op() -> dict[str, float]:
    store, spec = _update_heavy()
    requests = generate_requests(spec)[:OPS]
    load_store(store, spec)
    clock = store.cluster.clock
    profiles: dict[str, cProfile.Profile] = {}
    ops: dict[str, int] = {}
    for req in requests:
        kind = req.op.method
        op = getattr(store, kind)
        profile = profiles.setdefault(kind, cProfile.Profile())
        profile.enable()
        result = op(req.key)
        profile.disable()
        clock.advance(result.latency_s)
        ops[kind] = ops.get(kind, 0) + 1
    return {
        kind: (pstats.Stats(profile).total_calls - ops[kind]) / ops[kind]
        for kind, profile in profiles.items()
    }


def test_logecmem_calls_per_op_stay_within_budget():
    calls = calls_per_op()
    assert set(calls) == {"read", "update"}
    assert calls["update"] <= UPDATE_BUDGET, calls
    assert calls["read"] <= READ_BUDGET, calls


def test_load_calls_per_object_stay_within_budget():
    store, spec = _update_heavy()
    stats = _profiled(load_store, store, spec)
    per_object = (stats.total_calls - 1) / spec.n_objects
    assert len(store.versions) == spec.n_objects
    assert per_object <= LOAD_BUDGET_PER_OBJECT, per_object


def _profiled(fn, *args) -> pstats.Stats:
    profile = cProfile.Profile()
    profile.enable()
    fn(*args)
    profile.disable()
    return pstats.Stats(profile)


def test_generate_requests_calls_per_request_stay_within_budget():
    spec = WorkloadSpec(
        n_objects=1000, n_requests=8000, read_ratio=0.90, update_ratio=0.05,
        write_ratio=0.05, value_size=4096, seed=42,
    )
    per_request = _profiled(generate_requests, spec).total_calls / spec.n_requests
    assert per_request <= GENERATE_BUDGET_PER_REQUEST, per_request


def test_a_second_store_hashes_no_ring_points():
    config = StoreConfig(k=6, r=3, value_size=4096, scheme="plm")
    make_store("logecmem", config)
    stats = _profiled(make_store, "logecmem", config)
    hashes = sum(
        calls
        for (filename, _, name), (_, calls, *_rest) in stats.stats.items()
        if name == "_hash64" and filename.endswith("hashring.py")
    )
    assert hashes == 0
    assert stats.total_calls <= SECOND_STORE_BUDGET, stats.total_calls


def test_telemetry_calls_per_job_and_per_tick_stay_within_budget(monkeypatch):
    jobs, profile, _, _ = build_jobs(n_objects=600, n_requests=2000, seed=42)
    counted = {}
    for name in ("observe_op", "sample"):
        counted[name] = entry = [cProfile.Profile(), 0]
        method = getattr(TelemetrySampler, name)

        def profiled(self, *args, _method=method, _entry=entry):
            _entry[1] += 1
            _entry[0].enable()
            result = _method(self, *args)
            _entry[0].disable()
            return result

        monkeypatch.setattr(TelemetrySampler, name, profiled)
    result = run_point(jobs, profile, 16, telemetry_interval_s=1e-3, slo_p99_us=2000.0)
    (observe, observed), (sample, ticks) = counted["observe_op"], counted["sample"]
    assert observed == result.jobs_completed == len(jobs)
    assert ticks == result.telemetry["samples"] > 100
    per_job = (pstats.Stats(observe).total_calls - observed) / observed
    per_tick = (pstats.Stats(sample).total_calls - ticks) / ticks
    assert per_job <= OBSERVE_OP_BUDGET, per_job
    assert per_tick <= SAMPLE_BUDGET, per_tick
