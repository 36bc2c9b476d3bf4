"""The load phase's simulated accounting, pinned byte for byte.

Every loaded object costs host time in ``make_value`` and in the striped
write path (queue choice, chunk packing, stripe sealing, parity placement).
None of that may move a simulated number: a load must charge the same
latency to every write, advance the clock to the same float, bump the same
counters, seal the same stripes onto the same nodes and index every object
at the same place, whatever the value bytes are and however few calls the
path makes.

Each case loads objects one ``write`` at a time, as ``load_store`` does, and
hashes the accounting into one SHA-256:

* each write's ``repr(latency_s)``;
* ``clock.now`` and ``counters.as_dict()``;
* ``metrics.snapshot()`` and the retained span trees;
* every stripe's ``chunk_nodes`` and ``chunk_keys``;
* every ``ObjectLocation`` in the ``ObjectIndex``;
* the keys still pending in unsealed units, and each DRAM node's memtable
  keys and logical bytes.

Value bytes and checksums never enter the digest, so a change to how bytes
are minted leaves every pin where it is.  A moved pin means a simulated
number of the load moved.
"""

import hashlib
import json

import pytest

from repro.baselines import make_store
from repro.core.adaptive import AdaptiveLogECMem
from repro.core.config import StoreConfig

N_OBJECTS = 600
STORES = ("logecmem", "ipmem", "fsmem", "adaptive")
#: (k, r, value size, chunk size); the last packs four objects per unit
CODES = {
    "6-3-4k": (6, 3, 4096, 4096),
    "10-4-16k": (10, 4, 16384, 16384),
    "6-3-1000-in-4k": (6, 3, 1000, 4096),
}
SCENARIO_CODES = ("6-3-4k", "6-3-1000-in-4k")


def _store(name: str, k: int, r: int, value_size: int, chunk_size: int):
    config = StoreConfig(
        k=k, r=r, value_size=value_size, chunk_size=chunk_size,
        payload_scale=1.0, scheme="plm",
    )
    if name == "adaptive":
        return AdaptiveLogECMem(config)
    return make_store(name, config)


def _write(store, key: str, latencies: list[str]) -> None:
    result = store.write(key)
    store.cluster.clock.advance(result.latency_s)
    latencies.append(repr(result.latency_s))


def _digest(store, latencies: list[str]) -> str:
    cluster = store.cluster
    stripes = store.stripe_index
    doc = {
        "latencies": latencies,
        "now": repr(cluster.clock.now),
        "counters": {k: repr(v) for k, v in sorted(store.counters.as_dict().items())},
        "metrics": store.metrics.snapshot(),
        "spans": [span.to_dict() for span in store.tracer.spans],
        "stripes": [
            [sid, stripes.get(sid).chunk_nodes, stripes.get(sid).chunk_keys]
            for sid in range(store._next_stripe_id)
        ],
        "index": {
            key: [loc.stripe_id, loc.seq_no, loc.offset, loc.length]
            for key in sorted(store.object_index.keys())
            for loc in [store.object_index.lookup(key)]
        },
        "pending": sorted(store._pending),
        "memtables": {
            nid: [sorted(node.table.keys()), node.table.logical_bytes]
            for nid, node in sorted(cluster.dram_nodes.items())
        },
    }
    blob = json.dumps(doc, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load(name: str, code: str) -> str:
    store = _store(name, *CODES[code])
    latencies: list[str] = []
    for i in range(N_OBJECTS):
        _write(store, f"user{i:012d}", latencies)
    return _digest(store, latencies)


def load_with_rewrites(name: str, code: str) -> str:
    """Delete a few keys mid-load -- some still pending, some sealed -- and
    write them again, so stale slots ride the sealing pipeline."""
    store = _store(name, *CODES[code])
    latencies: list[str] = []
    for i in range(N_OBJECTS):
        _write(store, f"user{i:012d}", latencies)
        if i in (150, 320, 480):
            for victim in (i - 140, i - 1, i):
                key = f"user{victim:012d}"
                result = store.delete(key)
                store.cluster.clock.advance(result.latency_s)
                latencies.append(repr(result.latency_s))
                _write(store, key, latencies)
    return _digest(store, latencies)


def load_with_dram_outage(name: str, code: str) -> str:
    """Kill one DRAM node a third of the way in and restore it at two
    thirds: queue choice skips it, sealing waits on it, then catches up."""
    store = _store(name, *CODES[code])
    latencies: list[str] = []
    for i in range(N_OBJECTS):
        if i == N_OBJECTS // 3:
            store.cluster.kill("dram2")
        if i == 2 * N_OBJECTS // 3:
            store.cluster.restore("dram2")
        _write(store, f"user{i:012d}", latencies)
    return _digest(store, latencies)


LOAD_PINS = {
    ('logecmem', '6-3-4k'): '24a2dce696633804',
    ('logecmem', '10-4-16k'): 'd93efd5bfdbc79f8',
    ('logecmem', '6-3-1000-in-4k'): 'ffc63391f4777312',
    ('ipmem', '6-3-4k'): '12fbc039c05bd125',
    ('ipmem', '10-4-16k'): 'bc25362cd1b88c2d',
    ('ipmem', '6-3-1000-in-4k'): '6bf553ac13792bd2',
    ('fsmem', '6-3-4k'): '12fbc039c05bd125',
    ('fsmem', '10-4-16k'): 'bc25362cd1b88c2d',
    ('fsmem', '6-3-1000-in-4k'): '6bf553ac13792bd2',
    ('adaptive', '6-3-4k'): '24a2dce696633804',
    ('adaptive', '10-4-16k'): 'd93efd5bfdbc79f8',
    ('adaptive', '6-3-1000-in-4k'): 'ffc63391f4777312',
}

REWRITE_PINS = {
    ('logecmem', '6-3-4k'): '3b7890a8ec0d6adb',
    ('logecmem', '6-3-1000-in-4k'): '972e9285e574c7d3',
    ('ipmem', '6-3-4k'): '0f95d0bef9b956cd',
    ('ipmem', '6-3-1000-in-4k'): 'ef48ef30d87dc88f',
    ('fsmem', '6-3-4k'): '0a1f8e4f5e331c7c',
    ('fsmem', '6-3-1000-in-4k'): '6eb8e8955083cb63',
    ('adaptive', '6-3-4k'): '3b7890a8ec0d6adb',
    ('adaptive', '6-3-1000-in-4k'): '972e9285e574c7d3',
}

OUTAGE_PINS = {
    ('logecmem', '6-3-4k'): '34d55988d2b09ef7',
    ('logecmem', '6-3-1000-in-4k'): 'ee83f02db1d8ce84',
    ('ipmem', '6-3-4k'): 'bf5bcb46c9e96ddd',
    ('ipmem', '6-3-1000-in-4k'): '13b8c447059020b7',
    ('fsmem', '6-3-4k'): 'bf5bcb46c9e96ddd',
    ('fsmem', '6-3-1000-in-4k'): '13b8c447059020b7',
    ('adaptive', '6-3-4k'): '34d55988d2b09ef7',
    ('adaptive', '6-3-1000-in-4k'): 'ee83f02db1d8ce84',
}


@pytest.mark.parametrize("code", sorted(CODES))
@pytest.mark.parametrize("name", STORES)
def test_load_accounting_matches_the_pin(name, code):
    assert load(name, code) == LOAD_PINS[name, code]


@pytest.mark.parametrize("code", SCENARIO_CODES)
@pytest.mark.parametrize("name", STORES)
def test_load_with_rewrites_matches_the_pin(name, code):
    assert load_with_rewrites(name, code) == REWRITE_PINS[name, code]


@pytest.mark.parametrize("code", SCENARIO_CODES)
@pytest.mark.parametrize("name", STORES)
def test_load_with_a_dram_outage_matches_the_pin(name, code):
    assert load_with_dram_outage(name, code) == OUTAGE_PINS[name, code]
