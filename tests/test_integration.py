"""Cross-system integration and property tests.

Differential testing: all five stores must agree on every read under the
same operation sequence.  Fuzzing: random op/failure sequences must leave
LogECMem scrubbable (all parities re-derivable) and every object readable as
long as no stripe lost more than r chunks.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import make_store
from repro.core.adaptive import AdaptiveLogECMem
from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.core.scrub import scrub
from repro.workloads import WorkloadSpec, generate_requests, load_keys
from repro.bench.runner import run_requests, run_workload


def _cfg(**kw):
    defaults = dict(k=4, r=3, value_size=4096, payload_scale=1 / 32)
    defaults.update(kw)
    return StoreConfig(**defaults)


ALL_STORES = ("vanilla", "replication", "ipmem", "fsmem", "logecmem")


# ------------------------------------------------------------ differential


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["read", "update", "delete", "write_new"]),
            st.integers(min_value=0, max_value=19),
        ),
        max_size=30,
    ),
    st.integers(min_value=1, max_value=4096),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),  # replication's r+1 = 4 nodes bound it
)
def test_all_stores_agree_on_values(ops, value_size, per_chunk, victim):
    """Same op sequence -> same visible values on every system, healthy and
    with one DRAM node down.  Values run from 1 B to a whole chunk, with
    ``per_chunk`` objects packed per chunk (MemEC's small-object regime,
    where sub-chunk delta offsets matter); after the sequence the same DRAM
    node dies in every redundant store and each surviving key's degraded
    read must equal Vanilla's healthy read byte for byte."""
    cfg = dict(value_size=value_size, chunk_size=value_size * per_chunk)
    stores = [make_store(name, _cfg(**cfg)) for name in ALL_STORES]
    stores.append(AdaptiveLogECMem(_cfg(**cfg), hot_threshold=2, coalesce_updates=2))
    for s in stores:
        for i in range(20):
            s.write(f"user{i}")
    alive = set(f"user{i}" for i in range(20))
    extra = 0
    for op, idx in ops:
        key = f"user{idx}"
        if op == "write_new":
            key = f"extra{extra}"
            extra += 1
            for s in stores:
                s.write(key)
            alive.add(key)
        elif key not in alive:
            continue
        elif op == "read":
            values = [s.read(key).value for s in stores]
            for v in values[1:]:
                assert np.array_equal(v, values[0])
        elif op == "update":
            for s in stores:
                s.update(key)
        elif op == "delete":
            for s in stores:
                s.delete(key)
            alive.discard(key)
    # final sweep: every surviving key readable and identical everywhere
    for key in sorted(alive):
        values = [s.read(key).value for s in stores]
        for v in values[1:]:
            assert np.array_equal(v, values[0])
    vanilla, redundant = stores[0], stores[1:]
    for s in redundant:
        s.cluster.kill(f"dram{victim}")
    for key in sorted(alive):
        healthy = vanilla.read(key).value
        for s in redundant:
            assert np.array_equal(s.read(key).value, healthy), (s.name, key)


def test_all_stores_complete_a_real_workload():
    spec = WorkloadSpec.read_update("80:20", n_objects=120, n_requests=200, seed=3)
    for name in ALL_STORES:
        store = make_store(name, _cfg())
        for key in load_keys(spec):
            store.write(key)
        result = run_requests(store, generate_requests(spec), spec)
        assert result.op_count("read") + result.op_count("update") == 200
        assert result.memory_bytes > 0


# ----------------------------------------------------------------- fuzzing


def _restore_all(store, killed):
    """Bring killed nodes back the way the system would: a log node that was
    down while updates flowed has stale parities (the deltas were dropped and
    it is marked ``needs_recovery``), so it re-enters via recover_log_node;
    DRAM nodes restore directly (their chunks were never erased)."""
    from repro.core.recovery import recover_log_node

    for nid in sorted(killed):
        if nid in store.cluster.log_nodes:
            recover_log_node(store, nid)
        else:
            store.cluster.restore(nid)
    killed.clear()


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("update"), st.integers(min_value=0, max_value=23)),
            st.tuples(st.just("delete"), st.integers(min_value=0, max_value=23)),
            st.tuples(st.just("kill_dram"), st.integers(min_value=0, max_value=4)),
            st.tuples(st.just("kill_log"), st.integers(min_value=0, max_value=1)),
            st.tuples(st.just("restore_all"), st.just(0)),
            st.tuples(st.just("settle"), st.just(0)),
        ),
        max_size=25,
    )
)
def test_fuzz_logecmem_stays_consistent(ops):
    """Random updates/deletes/failures never corrupt parity state."""
    store = LogECMem(_cfg())
    for i in range(24):
        store.write(f"user{i}")
    deleted = set()
    killed = set()
    from repro.core.striped import ChunkUnavailableError

    for op, arg in ops:
        if op == "update":
            key = f"user{arg}"
            if key not in deleted:
                try:
                    store.update(key)
                except ChunkUnavailableError:
                    pass  # home node down: update correctly refused
        elif op == "delete":
            key = f"user{arg}"
            if key not in deleted:
                try:
                    store.delete(key)
                    deleted.add(key)
                except ChunkUnavailableError:
                    pass
        elif op == "kill_dram":
            nid = f"dram{arg}"
            if len(killed) < store.cfg.r - 1:  # stay within tolerance
                store.cluster.kill(nid)
                killed.add(nid)
        elif op == "kill_log":
            nid = f"log{arg}"
            if len(killed) < store.cfg.r - 1:
                store.cluster.kill(nid)
                killed.add(nid)
        elif op == "restore_all":
            _restore_all(store, killed)
        elif op == "settle":
            store.finalize()
    # restore everything, then the oracle: scrub + every live object readable
    _restore_all(store, killed)
    store.finalize()
    assert scrub(store).clean
    for i in range(24):
        key = f"user{i}"
        if key in deleted:
            continue
        res = store.read(key)
        assert np.array_equal(res.value, store.expected_value(key)), key


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzz_reads_under_failures_within_tolerance(data):
    """With at most r chunks of any stripe down, every object stays readable."""
    store = LogECMem(_cfg(k=4, r=3))
    for i in range(24):
        store.write(f"user{i}")
    for i in range(10):
        store.update(f"user{i}")
    store.finalize()
    # kill up to 2 DRAM nodes (every stripe loses <= 2 of its k+1 DRAM chunks)
    # plus optionally 1 log node: total unavailable <= r = 3 per stripe
    n_dram_kill = data.draw(st.integers(min_value=0, max_value=2))
    dram_ids = store.cluster.dram_ids()
    for nid in data.draw(
        st.permutations(dram_ids)
    )[:n_dram_kill]:
        store.cluster.kill(nid)
    if data.draw(st.booleans()):
        store.cluster.kill(store.cluster.log_ids()[0])
    for i in range(24):
        key = f"user{i}"
        res = store.read(key)
        assert np.array_equal(res.value, store.expected_value(key)), key


def test_clock_monotone_across_mixed_ops():
    store = LogECMem(_cfg())
    clock = store.cluster.clock
    last = clock.now
    for i in range(12):
        store.write(f"user{i}")
        clock.advance(0.0)
        assert clock.now >= last
        last = clock.now
    store.update("user0")
    store.degraded_read("user0")
    assert clock.now >= last


def test_counters_consistent_with_ops():
    spec = WorkloadSpec.read_update("50:50", n_objects=100, n_requests=100, seed=5)
    store = LogECMem(_cfg())
    for key in load_keys(spec):
        store.write(key)
    result = run_requests(store, generate_requests(spec), spec)
    c = result.counters
    assert c["op_read"] == result.op_count("read")
    assert c["op_update"] == result.op_count("update")
    assert c["op_write"] == spec.n_objects
    # every update to a sealed stripe ships r-1 deltas
    assert c["parity_deltas_sent"] <= c["op_update"] * (store.cfg.r - 1)


# ------------------------------------------------- ablations (DESIGN.md §5)


def _ablation_spec():
    return WorkloadSpec.read_update("50:50", n_objects=800, n_requests=800, seed=42)


def test_ablation_merge_based_buffer_logging():
    """§4.3: merging in the buffer cuts disk IOs."""
    ios, merges = {}, {}
    for merge in (False, True):
        store = LogECMem(StoreConfig(k=6, r=3, scheme="pl", merge_buffer=merge))
        ios[merge] = run_workload(store, _ablation_spec()).disk_io_count
        merges[merge] = sum(n.buffer.merges for n in store.cluster.log_nodes.values())
    assert merges[True] > 0
    assert merges[False] == 0
    assert ios[True] <= ios[False]


def test_ablation_flush_threshold():
    """Smaller flush thresholds mean more, smaller flush IOs."""
    ios = {}
    for threshold in (64 << 10, 512 << 10):
        cfg = StoreConfig(k=6, r=3, scheme="pl")
        cfg.profile.log_flush_threshold_bytes = threshold
        cfg.profile.log_buffer_bytes = 2 * threshold
        ios[threshold] = run_workload(LogECMem(cfg), _ablation_spec()).disk_io_count
    assert ios[64 << 10] > ios[512 << 10]


def test_ablation_payload_scale_invariance():
    """Counters and latencies are functions of logical bytes only."""
    a, b = (
        (result.mean_latency_us("update"), result.memory_bytes,
         result.counters["net_bytes"], result.disk_io_count)
        for result in (run_workload(LogECMem(StoreConfig(k=6, r=3, payload_scale=scale)),
                                    _ablation_spec()) for scale in (1 / 32, 1 / 8))
    )
    assert a[0] == pytest.approx(b[0], rel=1e-6)
    assert a[1] == b[1]
    assert a[2] == b[2]
    assert a[3] == b[3]


def test_ablation_fsmem_gc_policy():
    """Inline GC runs more rounds than deferred GC."""
    deferred = make_store("fsmem", StoreConfig(k=6, r=3))
    run_workload(deferred, _ablation_spec())
    inline = make_store("fsmem", StoreConfig(k=6, r=3, fsmem_gc_stale_threshold=32))
    run_workload(inline, _ablation_spec())
    assert inline.gc_rounds > deferred.gc_rounds


def test_ablation_xor_parity_in_dram():
    """§3.1/§3.3: single-failure repair from the DRAM XOR parity beats the
    same read forced through a logged parity -- HybridPL's reason to keep one
    parity chunk in DRAM."""
    store = LogECMem(StoreConfig(k=6, r=3))
    run_workload(store, _ablation_spec())
    key = next(iter(store.object_index.keys()))
    dram_path = store.degraded_read(key).latency_s
    loc = store.object_index.lookup(key)
    rec = store.stripe_index.get(loc.stripe_id)
    store.cluster.kill(rec.chunk_nodes[loc.seq_no])
    store.cluster.kill(rec.xor_parity_node())
    assert store.read(key).latency_s > dram_path
