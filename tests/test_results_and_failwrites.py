"""Tests for result persistence, workload distributions, and writes under
node failures."""

import numpy as np
import pytest

from repro.bench import results
from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.core.scrub import scrub
from repro.workloads import (
    HotspotGenerator,
    UniformGenerator,
    WorkloadSpec,
    generate_requests,
)


# ------------------------------------------------------------------- results


def _rows():
    return [
        {"store": "logecmem", "k": 6, "update_latency_us": 469.4, "assisted": True},
        {"store": "ipmem", "k": 6, "update_latency_us": 668.0, "assisted": False},
    ]


def test_json_roundtrip(tmp_path):
    path = results.save(_rows(), tmp_path / "run.json", meta={"seed": 42})
    assert results.load(path) == _rows()
    rows, meta = results.from_json(path.read_text())
    assert meta == {"seed": 42}


def test_bad_suffix_rejected(tmp_path):
    with pytest.raises(ValueError):
        results.save(_rows(), tmp_path / "run.csv")
    with pytest.raises(ValueError):
        results.load(tmp_path / "run.txt")


def test_from_json_validates():
    with pytest.raises(ValueError):
        results.from_json("[1, 2, 3]")


# ------------------------------------------------------------- distributions


def test_uniform_generator_flat():
    draws = UniformGenerator(1000, seed=1).sample(20_000)
    counts = np.bincount(draws, minlength=1000)
    assert counts.max() < 3 * counts.mean()


def test_hotspot_generator_skew():
    gen = HotspotGenerator(1000, hot_set_fraction=0.1, hot_op_fraction=0.9, seed=2)
    draws = gen.sample(20_000)
    hot_share = np.mean(draws < 100)
    assert 0.85 < hot_share < 0.95


def test_hotspot_validation():
    with pytest.raises(ValueError):
        HotspotGenerator(0)
    with pytest.raises(ValueError):
        HotspotGenerator(10, hot_set_fraction=1.5)


def test_spec_distribution_plumbs_through():
    for dist in ("uniform", "hotspot", "zipfian"):
        spec = WorkloadSpec(
            n_objects=200, n_requests=400, read_ratio=0.5, update_ratio=0.5,
            distribution=dist, seed=3,
        )
        reqs = generate_requests(spec)
        assert len(reqs) == 400
    with pytest.raises(ValueError):
        WorkloadSpec(read_ratio=1.0, update_ratio=0.0, distribution="bogus")


def test_uniform_spreads_updates_over_stripes():
    z = WorkloadSpec(n_objects=5000, n_requests=5000, read_ratio=0.5,
                     update_ratio=0.5, seed=4)
    u = WorkloadSpec(n_objects=5000, n_requests=5000, read_ratio=0.5,
                     update_ratio=0.5, distribution="uniform", seed=4)
    from repro.workloads.ycsb import update_trace

    z_updates = update_trace(z)
    u_updates = update_trace(u)
    assert len(np.unique(u_updates)) > len(np.unique(z_updates))


# --------------------------------------------------------- writes under fail


def _loaded(n=16):
    store = LogECMem(StoreConfig(k=4, r=3, payload_scale=1 / 16))
    for i in range(n):
        store.write(f"user{i}")
    return store


def test_writes_buffer_while_placement_impossible():
    """k+1 DRAM nodes with one dead cannot place a new stripe: writes keep
    succeeding, objects wait in the (replicated) proxy buffers."""
    store = _loaded()
    sealed_before = len(store.stripe_index)
    store.cluster.kill("dram0")
    for i in range(16, 56):
        store.write(f"user{i}")
    assert len(store.stripe_index) == sealed_before  # nothing placeable sealed
    assert len(store._pending) >= 40
    assert scrub(store).clean


def test_reads_of_new_writes_during_failure():
    store = _loaded()
    store.cluster.kill("dram1")
    for i in range(16, 40):
        store.write(f"user{i}")
    for i in range(16, 40):
        key = f"user{i}"
        assert np.array_equal(store.read(key).value, store.expected_value(key))


def test_sealing_resumes_after_restore():
    store = _loaded(n=4)
    store.cluster.kill("dram2")
    before = len(store.stripe_index)
    for i in range(4, 24):
        store.write(f"user{i}")
    during = len(store.stripe_index)
    store.cluster.restore("dram2")
    for i in range(24, 40):
        store.write(f"user{i}")
    assert len(store.stripe_index) > during >= before
    assert scrub(store).clean


def test_all_dram_dead_rejects_writes():
    store = _loaded(n=4)
    for nid in store.cluster.dram_ids():
        store.cluster.kill(nid)
    with pytest.raises(RuntimeError):
        store.write("newkey")


def test_log_node_failure_blocks_new_stripes_gracefully():
    store = _loaded()
    sealed_before = len(store.stripe_index)
    for nid in store.cluster.log_ids():
        store.cluster.kill(nid)
    for i in range(16, 40):
        store.write(f"user{i}")  # must not raise
    assert len(store.stripe_index) == sealed_before
    store.cluster.restore("log0")
    for i in range(40, 60):
        store.write(f"user{i}")
    assert len(store.stripe_index) > sealed_before  # sealing resumed