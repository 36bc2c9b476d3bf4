"""Tests for the KV substrate: memtable, chunk packing, metadata indices."""

import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import (
    Chunk,
    MemTable,
    ObjectIndex,
    ObjectLocation,
    StripeIndex,
    StripeRecord,
)
from repro.kvstore.chunk import make_value
from repro.kvstore.memtable import ITEM_OVERHEAD
from tests.helpers import accounting_ok


# ------------------------------------------------------------------ memtable


def test_memtable_set_get_delete():
    t = MemTable()
    t.set("a", 4096)
    assert "a" in t
    assert t.get("a").logical_size == 4096
    assert t.delete("a")
    assert not t.delete("a")
    assert t.get("a") is None


def test_memtable_accounting_on_replace():
    t = MemTable()
    t.set("k", 1000)
    before = t.logical_bytes
    t.set("k", 2000)
    assert t.logical_bytes == before + 1000
    assert accounting_ok(t)


def test_memtable_footprint_includes_key_and_header():
    t = MemTable()
    t.set("abcd", 100)
    assert t.logical_bytes == 100 + 4 + ITEM_OVERHEAD


def test_memtable_rejects_negative_size():
    with pytest.raises(ValueError):
        MemTable().set("k", -1)


def test_memtable_clear():
    t = MemTable()
    t.set("a", 10)
    t.set("b", 20)
    t.clear()
    assert len(t) == 0
    assert t.logical_bytes == 0


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d"]),
            st.sampled_from(["set", "del"]),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=40,
    )
)
def test_memtable_accounting_invariant(ops):
    t = MemTable()
    for key, op, size in ops:
        if op == "set":
            t.set(key, size)
        else:
            t.delete(key)
        assert accounting_ok(t)


# --------------------------------------------------------------------- chunk


def test_chunk_pack_and_read_full_scale():
    c = Chunk(logical_size=4096, payload_scale=1.0)
    v = make_value("k1", 0, 1024)
    slot = c.append("k1", 1024, v)
    assert slot.offset == 0 and slot.length == 1024
    assert slot.phys_offset == 0 and slot.phys_length == 1024
    assert np.array_equal(c.read_slot(slot), v)


def test_chunk_packs_fcfs():
    c = Chunk(logical_size=4096)
    s1 = c.append("a", 1000, make_value("a", 0, 1000))
    s2 = c.append("b", 2000, make_value("b", 0, 2000))
    assert s2.offset == s1.end
    assert len(c.slots) == 2
    assert c.free_logical() == 4096 - 3000


def test_chunk_overflow_raises():
    c = Chunk(logical_size=100)
    c.append("a", 80, make_value("a", 0, 80))
    with pytest.raises(ValueError):
        c.append("b", 30, make_value("b", 0, 30))


def test_chunk_scaled_payload():
    c = Chunk(logical_size=4096, payload_scale=0.0625)
    assert c.physical_size == 256
    v = make_value("k", 0, 256)
    slot = c.append("k", 4096, v)  # object fills the whole logical chunk
    assert slot.length == 4096
    assert slot.phys_length == 256
    assert np.array_equal(c.read_slot(slot), v)


def test_chunk_write_slot_in_place():
    c = Chunk(logical_size=1024)
    slot = c.append("k", 512, make_value("k", 0, 512))
    v2 = make_value("k", 1, 512)
    c.write_slot(slot, v2)
    assert np.array_equal(c.read_slot(slot), v2)


def test_chunk_write_slot_size_check():
    c = Chunk(logical_size=1024)
    slot = c.append("k", 512, make_value("k", 0, 512))
    with pytest.raises(ValueError):
        c.write_slot(slot, np.zeros(100, dtype=np.uint8))


def test_chunk_slot_for():
    c = Chunk(logical_size=1024)
    c.append("k", 100, make_value("k", 0, 100))
    assert c.slot_for("k").key == "k"
    assert c.slot_for("missing") is None


def test_chunk_invalid_params():
    with pytest.raises(ValueError):
        Chunk(logical_size=0)
    with pytest.raises(ValueError):
        Chunk(logical_size=10, payload_scale=0.0)
    with pytest.raises(ValueError):
        Chunk(logical_size=10, payload_scale=1.5)


def test_make_value_deterministic():
    assert np.array_equal(make_value("k", 3, 64), make_value("k", 3, 64))
    assert not np.array_equal(make_value("k", 3, 64), make_value("k", 4, 64))


# An independent PCG64: the 128-bit LCG and XSL-RR output of O'Neill's
# pcg_variants.h (the generator numpy's PCG64 implements), in plain Python
# integers.  Its constants are spelled out from that header, not imported.
PCG_MULTIPLIER_128 = (2549297995355413924 << 64) + 4865540595714422341
PCG_INCREMENT_128 = (6364136223846793005 << 64) + 1442695040888963407
INITSEQ = PCG_INCREMENT_128 >> 1
MASK_128 = (1 << 128) - 1
MASK_64 = (1 << 64) - 1


def _pcg64_bytes(initstate: int, initseq: int, n: int) -> bytes:
    """``pcg_setseq_128_srandom_r`` then ``n`` bytes of 64-bit outputs,
    little-endian."""
    inc = ((initseq << 1) | 1) & MASK_128

    def step(state: int) -> int:
        return (state * PCG_MULTIPLIER_128 + inc) & MASK_128

    state = step(0)
    state = step((state + initstate) & MASK_128)
    out = bytearray()
    while len(out) < n:
        state = step(state)
        word = ((state >> 64) ^ state) & MASK_64
        rot = state >> 122
        word = ((word >> rot) | (word << (-rot & 63))) & MASK_64
        out += word.to_bytes(8, "little")
    return bytes(out[:n])


def _make_value_reference(key: str, version: int, n: int) -> bytes:
    seed = zlib.crc32(f"{key}\x00{version}".encode()) or 1
    return _pcg64_bytes(seed, INITSEQ, n)


def test_pcg64_reference_matches_the_published_seeding():
    # srandom(42, 54) is pcg64-demo's seed and stream; these are the first
    # six outputs its round 1 prints in the PCG C library's expected output
    raw = _pcg64_bytes(42, 54, 48)
    words = [int.from_bytes(raw[i : i + 8], "little") for i in range(0, 48, 8)]
    assert words == [
        0x86B1DA1D72062B68, 0x1304AA46C9853D39, 0xA3670E9E0DD50358,
        0xF9090E529A7DAE00, 0xC85B9FD837996F2C, 0x606121F8E3919196,
    ]


@given(
    st.text(max_size=24),
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=1, max_value=4099),
)
@settings(max_examples=150, deadline=None)
def test_make_value_is_the_generator_stream(key, version, n):
    value = make_value(key, version, n)
    assert value.dtype == np.uint8 and value.shape == (n,)
    assert value.tobytes() == _make_value_reference(key, version, n)


def test_make_value_every_tail_length():
    # n not a multiple of 8 ends inside a raw 64-bit word
    for n in [*range(1, 18), 63, 64, 65, 4095, 4096, 4099, 16384]:
        assert make_value("tail", 1, n).tobytes() == _make_value_reference("tail", 1, n)


def test_make_value_matches_the_reference_on_random_pairs():
    rng = np.random.default_rng(20211114)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789:_-"
    for _ in range(500):
        key = "".join(rng.choice(list(alphabet), size=int(rng.integers(0, 24))))
        version = int(rng.integers(0, 1 << 31))
        n = int(rng.integers(1, 300))
        assert make_value(key, version, n).tobytes() == _make_value_reference(key, version, n)


def test_consecutive_versions_never_share_a_prefix():
    for i in range(10_000):
        key = f"user{i:012d}"
        prefixes = {make_value(key, version, 8).tobytes() for version in range(3)}
        assert len(prefixes) == 3, key


@pytest.mark.parametrize(
    "key, version, n, digest",
    [
        ("user000000000042", 0, 256,
         "404c4cb5733cbdf8d3db8cc94f2e56f81800702988fed489ba9fcd839f0275b1"),
        ("k", 3, 4099,
         "b101f20ee0b3964b4293f70b15480476baf52ce18682ee11837ea8284dd5dd3d"),
        ("stripe:7:p1", 12, 16384,
         "9fc59f42bdad121f377abce21c9a79b1ccc23b9f1479d193ec2f875394f37ce1"),
    ],
)
def test_make_value_pinned_digests(key, version, n, digest):
    """Digests of the reference's bytes: a numpy release that changed
    PCG64's state layout or output would fail here and in the reference
    comparisons above alike."""
    assert hashlib.sha256(make_value(key, version, n).tobytes()).hexdigest() == digest


def test_make_value_is_writable_and_independent():
    a = make_value("k", 0, 100)
    a[:] = 0
    assert make_value("k", 0, 100).any()


# ------------------------------------------------------------- object index


def test_object_index_roundtrip():
    idx = ObjectIndex()
    loc = ObjectLocation(stripe_id=5, seq_no=2, offset=100, length=50)
    idx.put("key", loc)
    assert "key" in idx
    assert idx.lookup("key") == loc
    assert idx.lookup("key").end == 150
    assert idx.remove("key")
    assert not idx.remove("key")
    with pytest.raises(KeyError):
        idx.lookup("key")


def test_object_index_get_missing_is_none():
    assert ObjectIndex().get("nope") is None


# ------------------------------------------------------------- stripe index


def _record(sid=0, k=4, r=2):
    nodes = [f"dram{i}" for i in range(k + 1)] + [f"log{j}" for j in range(r - 1)]
    return StripeRecord(stripe_id=sid, k=k, r=r, chunk_nodes=nodes)


def test_stripe_record_structure():
    rec = _record()
    assert rec.n == 6
    assert rec.data_nodes() == ["dram0", "dram1", "dram2", "dram3"]
    assert rec.xor_parity_node() == "dram4"
    assert rec.chunk_nodes[rec.k + 1 :] == ["log0"]
    assert rec.chunk_keys == [[], [], [], []]


def test_stripe_record_wrong_length_raises():
    with pytest.raises(ValueError):
        StripeRecord(stripe_id=0, k=4, r=2, chunk_nodes=["a"])


def test_stripe_record_chunks_on_node():
    nodes = ["n0", "n1", "n0", "n2", "n3", "n4"]
    rec = StripeRecord(stripe_id=1, k=4, r=2, chunk_nodes=nodes)
    assert rec.chunks_on_node("n0") == [0, 2]
    assert rec.chunks_on_node("n9") == []


def test_stripe_index_reverse_map():
    idx = StripeIndex()
    idx.put(_record(sid=1))
    idx.put(_record(sid=2))
    assert len(idx) == 2
    assert 1 in idx
    assert idx.stripes_on_node("dram0") == [1, 2]
    assert idx.stripes_on_node("nonexistent") == []
    assert idx.get(1).stripe_id == 1
    with pytest.raises(KeyError):
        idx.get(99)
