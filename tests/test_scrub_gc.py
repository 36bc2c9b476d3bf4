"""Tests for the scrubber and tombstone GC (§4.1)."""

import numpy as np
import pytest

from repro.baselines import make_store
from repro.core.config import StoreConfig
from repro.core.gc import collect_garbage
from repro.core.logecmem import LogECMem
from repro.core.scrub import scrub


def _cfg(**kw):
    defaults = dict(k=4, r=3, value_size=4096, payload_scale=1 / 16)
    defaults.update(kw)
    return StoreConfig(**defaults)


def _loaded(n=32, updates=(), cfg=None):
    store = LogECMem(cfg or _cfg())
    for i in range(n):
        store.write(f"user{i}")
    for key in updates:
        store.update(key)
    return store


# --------------------------------------------------------------------- scrub


def test_scrub_clean_store():
    store = _loaded(updates=["user3", "user7", "user3"])
    report = scrub(store)
    assert report.clean
    assert report.stripes_checked == len(store.stripe_index)
    assert report.parities_checked == report.stripes_checked * store.cfg.r


def test_scrub_detects_corruption():
    store = _loaded()
    sid = next(iter(store.stripe_index.stripe_ids()))
    store.parity_chunks[(sid, 0)][0] ^= 0xFF  # bit rot
    report = scrub(store)
    assert not report.clean
    assert (sid, 0) in report.mismatches


def test_scrub_detects_logged_parity_corruption():
    store = _loaded(updates=["user3"])
    store.finalize()
    sid = store.object_index.lookup("user3").stripe_id
    rec = store.stripe_index.get(sid)
    node = store.cluster.log_nodes[rec.chunk_nodes[store.cfg.k + 1]]
    region = node.scheme.region(sid, 1)
    region.base[0] ^= 0xFF
    report = scrub(store)
    assert (sid, 1) in report.mismatches


def test_scrub_skips_failed_nodes():
    store = _loaded()
    store.cluster.kill("log0")
    report = scrub(store)
    assert report.skipped_unavailable > 0
    assert report.clean  # nothing reachable is wrong


def test_scrub_works_on_ipmem():
    store = make_store("ipmem", _cfg())
    for i in range(16):
        store.write(f"user{i}")
    store.update("user3")
    report = scrub(store)
    assert report.clean


# ------------------------------------------------------------------------ gc


def test_delete_leaves_tombstone_until_gc():
    store = _loaded()
    before = store.memory_logical_bytes
    store.delete("user5")
    assert store.memory_logical_bytes == before  # zero-bytes space not reclaimed


def test_gc_reclaims_tombstones():
    store = _loaded(n=32)
    victims = ["user5", "user9", "user13"]
    for key in victims:
        store.delete(key)
    report = collect_garbage(store)
    assert report.tombstones_reclaimed == 3
    assert report.stripes_collected >= 1
    assert report.bytes_reclaimed >= 3 * store.cfg.value_size
    for key in victims:
        with pytest.raises(KeyError):
            store.read(key)


def test_gc_preserves_live_objects_and_consistency():
    store = _loaded(n=32, updates=["user3", "user8"])
    live_before = {
        f"user{i}": store.expected_value(f"user{i}") for i in range(32) if i != 5
    }
    store.delete("user5")
    collect_garbage(store)
    for key, expect in live_before.items():
        assert np.array_equal(store.read(key).value, expect), key
    assert scrub(store).clean


def test_gc_rewritten_objects_survive_degraded_reads():
    store = _loaded(n=32)
    store.delete("user5")
    report = collect_garbage(store)
    assert report.objects_rewritten > 0
    # every remaining object still reconstructs
    for i in range(32):
        if i == 5:
            continue
        res = store.degraded_read(f"user{i}")
        assert np.array_equal(res.value, store.expected_value(f"user{i}"))


def test_gc_noop_without_tombstones():
    store = _loaded()
    report = collect_garbage(store)
    assert report.stripes_collected == 0
    assert report.bytes_reclaimed == 0


def test_gc_drops_log_node_state():
    store = _loaded(n=32, updates=["user5", "user5"])
    store.finalize()
    sid = store.object_index.lookup("user5").stripe_id
    rec = store.stripe_index.get(sid)
    log_node = store.cluster.log_nodes[rec.chunk_nodes[store.cfg.k + 1]]
    assert (sid, 1) in log_node.scheme.regions
    store.delete("user5")
    collect_garbage(store)
    assert (sid, 1) not in log_node.scheme.regions


def test_gc_counts_costs():
    store = _loaded(n=32)
    store.delete("user5")
    report = collect_garbage(store)
    assert report.duration_s > 0
