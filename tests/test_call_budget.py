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

Measured on CPython 3.11 with numpy 2.4: update 145.3, read 42.0 calls (the
code before the log path was cut measured 245.1 and 52.0).  The budgets leave
about 5 calls of margin.  CPython 3.12 inlines list comprehensions (PEP 709),
so it counts fewer calls than 3.11, never more.  About a dozen calls per
update are numpy's own Python-level helpers under ``make_value``; a numpy
release may move those by a few.

A run's inputs are gated the same way.  ``generate_requests`` on the
``basic_io_five_stores`` spec (1 000 objects, 8 000 requests, 90:5:5, seed
42) measured 0.286 calls per request (3.12 before one ``Request`` per
distinct (op, key) pair); ring points are a pure function of the node id, so
a second (6,3) LogECMem store in one process hashes none of them (448 md5
calls before) and measured 579 calls in all (2 812 before).
"""

import cProfile
import pstats

from repro.baselines import make_store
from repro.bench.runner import load_store
from repro.core.config import StoreConfig
from repro.workloads.ycsb import WorkloadSpec, generate_requests

OPS = 12_000
UPDATE_BUDGET = 150
READ_BUDGET = 48
GENERATE_BUDGET_PER_REQUEST = 0.35
SECOND_STORE_BUDGET = 650


def calls_per_op() -> dict[str, float]:
    store = make_store("logecmem", StoreConfig(k=6, r=3, value_size=4096, scheme="plm"))
    spec = WorkloadSpec.read_update(
        "50:50", n_objects=3000, n_requests=24_000, value_size=4096, seed=42
    )
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
