"""Tests for the §9 future-work extensions: popularity-aware delta
coalescing (AdaptiveLogECMem) and SSD/NVRAM log-media profiles."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveLogECMem
from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.core.scrub import scrub
from repro.sim.params import ec2_profile, nvram_log_profile, ssd_log_profile
from tests.helpers import of_kind


def _cfg(**kw):
    defaults = dict(k=4, r=3, value_size=4096, payload_scale=1 / 16)
    defaults.update(kw)
    return StoreConfig(**defaults)


def _loaded(cls=AdaptiveLogECMem, n=24, **knobs):
    """A loaded store; ``knobs`` override AdaptiveLogECMem's class constants."""
    store = cls(_cfg())
    for name, value in knobs.items():
        setattr(store, name, value)
    for i in range(n):
        store.write(f"user{i}")
    return store


# ----------------------------------------------------------------- adaptive


def test_cold_keys_behave_like_plain_logecmem():
    store = _loaded(hot_threshold=100)  # nothing ever becomes hot
    for _ in range(5):
        store.update("user3")
    assert store.coalesced_updates == 0
    assert store.counters["parity_deltas_sent"] == 5 * (store.cfg.r - 1)


def test_hot_keys_coalesce_deltas():
    store = _loaded(hot_threshold=2, coalesce_updates=100)
    for _ in range(10):
        store.update("user3")
    # first update is cold, second crosses the threshold -> 9 coalesced
    assert store.coalesced_updates == 9
    shipped = store.counters["parity_deltas_sent"]
    assert shipped == 1 * (store.cfg.r - 1)  # only the cold update shipped
    store.finalize()
    assert store.counters["parity_deltas_sent"] > shipped  # flush shipped the rest


def test_coalesced_state_settles_identical_to_plain():
    """After finalize, adaptive == plain LogECMem bit-for-bit."""
    plain = _loaded(cls=LogECMem)
    adaptive = _loaded(hot_threshold=2, coalesce_updates=100)
    for store in (plain, adaptive):
        for key in ("user3", "user3", "user3", "user7", "user3"):
            store.update(key)
        store.finalize()
    assert scrub(adaptive).clean
    for key in ("user3", "user7"):
        sid_p = plain.object_index.lookup(key).stripe_id
        sid_a = adaptive.object_index.lookup(key).stripe_id
        for j in range(1, 3):
            pa = adaptive.uptodate_logged_parity(sid_a, j)
            data = np.stack(
                [adaptive.data_chunks[(sid_a, i)].buffer for i in range(4)]
            )
            assert np.array_equal(pa, adaptive.code.encode(data)[j])
        del sid_p


def test_pending_deltas_visible_to_multi_failure_repair():
    """Un-shipped deltas must not be lost when a repair needs logged parity."""
    store = _loaded(hot_threshold=2, coalesce_updates=100)
    for _ in range(4):
        store.update("user3")
    assert store._pending_deltas  # something is coalesced and unshipped
    loc = store.object_index.lookup("user3")
    rec = store.stripe_index.get(loc.stripe_id)
    store.cluster.kill(rec.chunk_nodes[loc.seq_no])
    store.cluster.kill(rec.xor_parity_node())
    res = store.read("user3")  # forced through a logged parity
    assert res.degraded
    assert np.array_equal(res.value, store.expected_value("user3"))


def test_flush_after_coalesce_window():
    store = _loaded(hot_threshold=1, coalesce_updates=3)
    for _ in range(3):
        store.update("user3")
    assert store.flushes == 1
    assert not store._pending_deltas


def test_pending_capacity_forces_flush():
    store = _loaded(n=24, hot_threshold=1, coalesce_updates=10_000)
    store.pending_capacity = 2
    for key in ("user0", "user1", "user2", "user3"):
        store.update(key)
    assert store.flushes >= 1


def test_cancelling_deltas_ship_nothing():
    """An update cycled back to the same bytes folds to a zero delta."""
    store = _loaded(hot_threshold=1, coalesce_updates=100)
    key = "user3"
    v = store.versions[key]
    store.update(key)  # v+1
    # simulate reverting: write old bytes back via a crafted update
    loc = store.object_index.lookup(key)
    chunk = store.data_chunks[(loc.stripe_id, loc.seq_no)]
    slot = chunk.slot_for(key)
    old = store._new_value(key, v)
    entry = store._pending_deltas[(loc.stripe_id, loc.seq_no)]
    entry[0][slot.phys_offset : slot.phys_end] ^= chunk.read_slot(slot) ^ old
    chunk.write_slot(slot, old)
    xor = store.parity_chunks[(loc.stripe_id, 0)]
    xor[slot.phys_offset : slot.phys_end] ^= store._new_value(key, v + 1) ^ old
    sent_before = store.counters["parity_deltas_sent"]
    store._flush_entry(loc.stripe_id, loc.seq_no)
    assert store.counters["parity_deltas_sent"] == sent_before  # zero delta


def test_hot_updates_fewer_log_messages_on_zipf():
    """The §9 payoff: a Zipf-skewed update stream ships far fewer deltas."""
    from repro.workloads.zipf import ScrambledZipfian

    chooser = ScrambledZipfian(24, seed=1)
    keys = [f"user{chooser.next()}" for _ in range(150)]
    plain = _loaded(cls=LogECMem)
    adaptive = _loaded(hot_threshold=2, coalesce_updates=16)
    for store in (plain, adaptive):
        for key in keys:
            store.update(key)
        store.finalize()
    assert (
        adaptive.counters["parity_deltas_sent"]
        < 0.8 * plain.counters["parity_deltas_sent"]
    )
    assert scrub(adaptive).clean


def test_hot_updates_to_partitioned_log_node_raise_one_stale_incident():
    """A coalesced flush that cannot reach a log node marks it stale exactly
    once, journalled, so the heal detector opens the ``stale_parity`` incident
    -- the same contract as plain LogECMem's per-update broadcast."""
    from repro.heal.plane import ControlPlane

    seen = {}
    for cls, kw in ((LogECMem, {}), (AdaptiveLogECMem, dict(hot_threshold=1, coalesce_updates=1))):
        store = _loaded(cls=cls, **kw)
        plane = ControlPlane().attach(store)
        plane.poll(0.0)
        nid = sorted(store.cluster.log_nodes)[0]
        store.net.set_link_down(nid)
        for _ in range(3):
            store.update("user3")
        assert store.cluster.log_nodes[nid].needs_recovery
        marks = of_kind(store.cluster.journal, "stale_mark")
        assert [(m.attrs["node"], m.attrs["reason"]) for m in marks] == [(nid, "missed_delta")]
        plane.poll(1.0)
        seen[cls.name] = [(inc["kind"], inc["node"]) for inc in plane.report()["incidents"]]
        assert store.counters["parity_deltas_skipped"] == 3
    assert seen["adaptive-logecmem"] == seen["logecmem"] == [("stale_parity", nid)]


# ------------------------------------------------------------------- media


def test_media_profiles_ordering():
    ec2 = ec2_profile()
    ssd = ssd_log_profile()
    nvram = nvram_log_profile()
    assert nvram.disk_seek_s < ssd.disk_seek_s < ec2.disk_seek_s
    assert nvram.disk_seq_bandwidth_Bps > ssd.disk_seq_bandwidth_Bps > ec2.disk_seq_bandwidth_Bps


@pytest.mark.parametrize("profile_fn", [ssd_log_profile, nvram_log_profile])
def test_faster_media_cheaper_multifailure_repair(profile_fn):
    def run(profile):
        cfg = StoreConfig(k=4, r=3, value_size=4096, payload_scale=1 / 16, profile=profile)
        store = LogECMem(cfg)
        for i in range(24):
            store.write(f"user{i}")
        for i in range(12):
            store.update(f"user{i % 8}")
        store.finalize()
        loc = store.object_index.lookup("user3")
        rec = store.stripe_index.get(loc.stripe_id)
        store.cluster.kill(rec.chunk_nodes[loc.seq_no])
        store.cluster.kill(rec.xor_parity_node())
        return store.read("user3").latency_s

    assert run(profile_fn()) < run(ec2_profile())
