"""Tests for the delta algebra (Properties 1 and 2, merging, application)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.delta import (
    DeltaRecord,
    ParityDelta,
    apply_parity_delta,
    compute_delta,
    merge_parity_deltas,
    parity_delta_from_data_delta,
)
from repro.ec.rs import RSCode


def test_compute_delta_roundtrip():
    rng = np.random.default_rng(0)
    old = rng.integers(0, 256, size=512, dtype=np.uint8)
    new = rng.integers(0, 256, size=512, dtype=np.uint8)
    d = compute_delta(old, new)
    assert np.array_equal(old ^ d, new)
    assert np.array_equal(new ^ d, old)


def test_compute_delta_shape_mismatch():
    with pytest.raises(ValueError):
        compute_delta(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))


def test_delta_record_properties():
    rec = DeltaRecord(stripe_id=7, data_index=2, offset=100, payload=np.zeros(50, dtype=np.uint8))
    assert rec.length == 50
    assert rec.end == 150


def test_delta_record_negative_offset():
    with pytest.raises(ValueError):
        DeltaRecord(stripe_id=0, data_index=0, offset=-1, payload=np.zeros(1, dtype=np.uint8))


def test_parity_delta_from_record_applies_coefficient():
    code = RSCode(6, 3)
    rng = np.random.default_rng(1)
    payload = rng.integers(0, 256, size=64, dtype=np.uint8)
    rec = DeltaRecord(stripe_id=3, data_index=4, offset=8, payload=payload)
    coeff = code.coefficient(2, 4)
    pd = ParityDelta.from_data_delta(rec, parity_index=2, coefficient=coeff)
    assert pd.stripe_id == 3
    assert pd.parity_index == 2
    assert pd.offset == 8
    assert np.array_equal(pd.payload, parity_delta_from_data_delta(coeff, payload))


def test_merge_requires_nonempty():
    with pytest.raises(ValueError):
        merge_parity_deltas([])


def test_merge_rejects_mixed_targets():
    a = ParityDelta(1, 0, 0, np.zeros(4, dtype=np.uint8))
    b = ParityDelta(2, 0, 0, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        merge_parity_deltas([a, b])
    c = ParityDelta(1, 1, 0, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        merge_parity_deltas([a, c])


def test_merge_overlapping_ranges_equals_sequential_apply():
    rng = np.random.default_rng(2)
    chunk_a = rng.integers(0, 256, size=256, dtype=np.uint8)
    chunk_b = chunk_a.copy()
    deltas = [
        ParityDelta(5, 1, 10, rng.integers(0, 256, size=64, dtype=np.uint8)),
        ParityDelta(5, 1, 40, rng.integers(0, 256, size=64, dtype=np.uint8)),
        ParityDelta(5, 1, 200, rng.integers(0, 256, size=32, dtype=np.uint8)),
    ]
    for d in deltas:
        apply_parity_delta(chunk_a, d)
    merged = merge_parity_deltas(deltas)
    apply_parity_delta(chunk_b, merged)
    assert np.array_equal(chunk_a, chunk_b)
    assert merged.offset == 10
    assert merged.end == 232
    assert merged.merged_count == 3


def test_merge_single_delta_is_identity():
    payload = np.arange(16, dtype=np.uint8)
    d = ParityDelta(1, 0, 4, payload)
    m = merge_parity_deltas([d])
    assert m.offset == 4
    assert np.array_equal(m.payload, payload)
    assert m.merged_count == 1


def test_apply_out_of_range_raises():
    chunk = np.zeros(16, dtype=np.uint8)
    d = ParityDelta(0, 0, 10, np.ones(10, dtype=np.uint8))
    with pytest.raises(ValueError):
        apply_parity_delta(chunk, d)


def test_merged_count_accumulates():
    a = ParityDelta(1, 0, 0, np.zeros(4, dtype=np.uint8), merged_count=2)
    b = ParityDelta(1, 0, 2, np.zeros(4, dtype=np.uint8), merged_count=3)
    assert merge_parity_deltas([a, b]).merged_count == 5


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=192),
            st.integers(min_value=1, max_value=64),
            st.integers(min_value=0, max_value=2**31 - 1),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_merge_equivalence_property(specs):
    """Merged application == sequential application for arbitrary deltas."""
    chunk_seq = np.zeros(256, dtype=np.uint8)
    chunk_mrg = np.zeros(256, dtype=np.uint8)
    deltas = []
    for off, ln, seed in specs:
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, size=ln, dtype=np.uint8)
        deltas.append(ParityDelta(9, 2, off, payload))
    for d in deltas:
        apply_parity_delta(chunk_seq, d)
    apply_parity_delta(chunk_mrg, merge_parity_deltas(deltas))
    assert np.array_equal(chunk_seq, chunk_mrg)


def test_end_to_end_update_consistency_via_records():
    """Full Property-1 + Property-2 pipeline keeps the stripe decodable."""
    code = RSCode(4, 2)
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, size=(4, 128), dtype=np.uint8)
    parity = code.encode(data)

    # Update bytes [32:64) of chunk 2 twice.
    updates = []
    current = data.copy()
    for seed in (10, 11):
        r = np.random.default_rng(seed)
        new_bytes = r.integers(0, 256, size=32, dtype=np.uint8)
        delta = current[2, 32:64] ^ new_bytes
        updates.append(DeltaRecord(stripe_id=0, data_index=2, offset=32, payload=delta))
        current[2, 32:64] = new_bytes

    # Log node for parity 1 folds both records, merged, into its parity.
    coeff = code.coefficient(1, 2)
    pds = [ParityDelta.from_data_delta(u, 1, coeff) for u in updates]
    merged = merge_parity_deltas(pds)
    p1 = parity[1].copy()
    apply_parity_delta(p1, merged)
    assert np.array_equal(p1, code.encode(current)[1])


def test_out_of_range_delta_raises_on_every_replay_path():
    """A delta whose ``end`` exceeds the chunk is refused wherever base+delta
    state is replayed, because every replay folds through apply_parity_delta."""
    from repro.cluster.node import LogNode
    from repro.logstore import make_scheme
    from repro.logstore.base import ReservedRegion
    from repro.logstore.records import LogRecord, merge_records
    from repro.sim.disk import DiskModel
    from repro.sim.params import HardwareProfile

    phys = 16
    base = LogRecord.for_chunk(0, 1, np.zeros(phys, dtype=np.uint8), 256)
    bad = LogRecord.for_delta(ParityDelta(0, 1, 10, np.ones(10, dtype=np.uint8)), 160)
    match = r"delta \[10, 20\) exceeds chunk size 16"

    region = ReservedRegion()
    region.apply(base)
    region.apply(bad)
    with pytest.raises(ValueError, match=match):
        region.materialise(phys)  # persisted reserved region

    with pytest.raises(ValueError, match=match):
        merge_records([base, bad])  # buffer / PLR-m / PLM merge into a base chunk

    plm = make_scheme("plm", DiskModel(HardwareProfile()))
    plm.flush([base, bad], now=0.0)  # both sit in staging, below the merge threshold
    with pytest.raises(ValueError, match=match):
        plm.read_parity(0, 1, phys, now=0.0)  # PLM staging overlay

    node = LogNode("log0", HardwareProfile(), scheme="plr")
    node.scheme.flush([base], now=0.0)
    node.append(bad, now=0.0)
    with pytest.raises(ValueError, match=match):
        node.read_uptodate_parity(0, 1, phys, now=0.0)  # DRAM buffer overlay
