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
