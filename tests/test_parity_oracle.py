"""One planted fault, every reporter agrees.

The parity oracle (``StripedStoreBase.fresh_parities``) has four reporters on
top of it -- ``verify_stripe``, ``scrub``, ``check_store`` and the heal
plane's ``scoped_check``.  A single corrupted byte, wherever a parity can live (DRAM XOR
chunk, a log node's persisted region, a delta still in its buffer), must be
flagged by every reporter that covers that site, as the same (stripe, parity),
under every log scheme; a clean store must be clean under all four.
"""

import re

import pytest

from repro.chaos.invariants import check_store
from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.core.scrub import scrub
from repro.heal.incidents import Action
from repro.heal.plane import scoped_check

SCHEMES = ("pl", "plr", "plr-m", "plm")
SITES = ("dram_xor", "persisted_region", "buffered_delta")
SID, LOGGED_J = 0, 1  # stripe 0 sits inside every scoped sweep's sample

_SUBJECT = re.compile(r"\[(\w+)\] stripe (\d+)(?: parity (\d+))?:")


def _flagged(descriptions) -> set[tuple[int, int]]:
    """(stripe, parity) pairs named by violation strings; a
    ``parity_inconsistent`` stripe means its DRAM parity, which is parity 0."""
    out = set()
    for text in descriptions:
        kind, sid, j = _SUBJECT.match(text).groups()
        assert kind in ("parity_inconsistent", "log_replay"), text
        out.add((int(sid), int(j) if j is not None else 0))
    return out


def _settled_store(scheme: str) -> LogECMem:
    store = LogECMem(
        StoreConfig(k=3, r=3, value_size=1024, payload_scale=1 / 16, scheme=scheme)
    )
    for i in range(36):
        store.write(f"user{i}")
    for i in range(0, 36, 2):
        store.update(f"user{i}")
    store.finalize()  # buffers drained, lazy merges done: all state persisted
    return store


def _reports(store: LogECMem, node_id: str) -> dict[str, set[tuple[int, int]]]:
    action = Action(kind="recover_log", node_id=node_id, seq=0)
    return {
        "scrub": set(scrub(store).mismatches),
        "check_store": _flagged(v.describe() for v in check_store(store).violations),
        "scoped_check": _flagged(scoped_check(store, action, "pre")["violations"]),
    }


@pytest.mark.parametrize("scheme", SCHEMES)
def test_clean_store_is_clean_under_every_reporter(scheme):
    store = _settled_store(scheme)
    node_id = store.stripe_index.get(SID).chunk_nodes[store.cfg.k + LOGGED_J]
    assert _reports(store, node_id) == {"scrub": set(), "check_store": set(), "scoped_check": set()}
    assert all(store.verify_stripe(sid) for sid in store.stripe_index.stripe_ids())


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_planted_fault_every_reporter_flags_the_same_parity(scheme, site):
    store = _settled_store(scheme)
    rec = store.stripe_index.get(SID)
    node_id = rec.chunk_nodes[store.cfg.k + LOGGED_J]
    node = store.cluster.log_nodes[node_id]
    if site == "dram_xor":
        planted = (SID, 0)
        store.parity_chunks[planted][0] ^= 0xFF
    elif site == "persisted_region":
        planted = (SID, LOGGED_J)
        node.scheme.regions[planted].base[0] ^= 0xFF
    else:
        planted = (SID, LOGGED_J)
        store.update(rec.chunk_keys[0][0])  # one delta, still in the DRAM buffer
        (buffered,) = node.buffer.records_for(*planted)
        buffered.delta.payload[0] ^= 0xFF
    assert _reports(store, node_id) == {
        "scrub": {planted},
        "check_store": {planted},
        "scoped_check": {planted},
    }
    assert store.verify_stripe(SID) == (site != "dram_xor")
