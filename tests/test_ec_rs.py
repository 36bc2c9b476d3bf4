"""Tests for the (k, r) Reed-Solomon codes (XOR first parity, MDS decode)."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.matrix import gf_matinv
from repro.ec import rs
from repro.ec.rs import RSCode, build_parity_matrix

PAPER_CODES = [(6, 3), (10, 4), (12, 4), (15, 3)]
LARGE_CODES = [(16, 4), (32, 4), (64, 4), (128, 4)]


def _stripe(code, length=256, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(code.k, length), dtype=np.uint8)
    parity = code.encode(data)
    return data, parity


def _chunks(code, data, parity):
    chunks = {i: data[i] for i in range(code.k)}
    chunks.update({code.k + j: parity[j] for j in range(code.r)})
    return chunks


@pytest.mark.parametrize("k,r", PAPER_CODES + LARGE_CODES)
def test_first_parity_row_is_all_ones(k, r):
    p = build_parity_matrix(k, r)
    assert np.all(p[0] == 1)


@pytest.mark.parametrize("k,r", PAPER_CODES)
def test_xor_parity_matches_row0(k, r):
    code = RSCode(k, r)
    data, parity = _stripe(code)
    assert np.array_equal(code.xor_parity(data), parity[0])
    assert np.array_equal(np.bitwise_xor.reduce(data, axis=0), parity[0])


@pytest.mark.parametrize("k,r", [(4, 2), (6, 3), (10, 4)])
def test_mds_every_survivor_set_decodes(k, r):
    """Any k-subset of generator rows must be invertible (MDS property)."""
    code = RSCode(k, r)
    for rows in itertools.combinations(range(k + r), k):
        gf_matinv(code.generator[list(rows), :])  # must not raise


@pytest.mark.parametrize("k,r", PAPER_CODES)
def test_decode_single_data_failure(k, r):
    code = RSCode(k, r)
    data, parity = _stripe(code, seed=1)
    chunks = _chunks(code, data, parity)
    lost = 2
    available = {i: c for i, c in chunks.items() if i != lost}
    out = code.decode(available, wanted=[lost])
    assert np.array_equal(out[lost], data[lost])


@pytest.mark.parametrize("k,r", PAPER_CODES)
def test_decode_r_failures(k, r):
    code = RSCode(k, r)
    data, parity = _stripe(code, seed=2)
    chunks = _chunks(code, data, parity)
    lost = list(range(r))  # drop the first r data chunks
    available = {i: c for i, c in chunks.items() if i not in lost}
    out = code.decode(available, wanted=lost)
    for i in lost:
        assert np.array_equal(out[i], data[i])


def test_decode_reconstructs_parity_chunks():
    code = RSCode(6, 3)
    data, parity = _stripe(code, seed=3)
    available = {i: data[i] for i in range(6)}
    out = code.decode(available, wanted=[6, 7, 8])
    for j in range(3):
        assert np.array_equal(out[6 + j], parity[j])


def test_decode_defaults_to_all_missing():
    code = RSCode(4, 2)
    data, parity = _stripe(code, seed=4)
    available = {0: data[0], 1: data[1], 4: parity[0], 5: parity[1]}
    out = code.decode(available)
    assert set(out) == {2, 3}
    assert np.array_equal(out[2], data[2])
    assert np.array_equal(out[3], data[3])


def test_decode_insufficient_chunks_raises():
    code = RSCode(4, 2)
    data, _ = _stripe(code, seed=5)
    with pytest.raises(ValueError):
        code.decode({0: data[0], 1: data[1], 2: data[2]})


@pytest.mark.parametrize("k,r", PAPER_CODES)
def test_repair_with_xor_fast_path(k, r):
    code = RSCode(k, r)
    data, parity = _stripe(code, seed=6)
    survivors = {i: data[i] for i in range(k)}
    survivors[k] = parity[0]
    for lost in (0, k // 2, k - 1):
        trimmed = {i: c for i, c in survivors.items() if i != lost}
        rebuilt = code.repair_with_xor(lost, trimmed)
        assert np.array_equal(rebuilt, data[lost])


def test_repair_with_xor_missing_chunk_raises():
    code = RSCode(4, 2)
    data, parity = _stripe(code, seed=7)
    survivors = {0: data[0], 1: data[1], 4: parity[0]}  # missing data chunk 3
    with pytest.raises(KeyError):
        code.repair_with_xor(2, survivors)


def test_parity_delta_property1():
    """P'(after update) == P + coefficient * (D' - D) for every parity."""
    code = RSCode(6, 3)
    data, parity = _stripe(code, seed=8)
    new_data = data.copy()
    rng = np.random.default_rng(9)
    new_data[3] = rng.integers(0, 256, size=data.shape[1], dtype=np.uint8)
    new_parity = code.encode(new_data)
    delta = data[3] ^ new_data[3]
    for j in range(3):
        pd = code.parity_delta(j, 3, delta)
        assert np.array_equal(parity[j] ^ pd, new_parity[j])


def test_parity_delta_property2_merging():
    """Two successive updates' parity deltas merge into one (XOR)."""
    code = RSCode(6, 3)
    data, parity = _stripe(code, seed=10)
    rng = np.random.default_rng(11)
    v1 = rng.integers(0, 256, size=data.shape[1], dtype=np.uint8)
    v2 = rng.integers(0, 256, size=data.shape[1], dtype=np.uint8)
    # update chunk 1 to v1, then chunk 4 to v2
    step1 = data.copy()
    step1[1] = v1
    final = step1.copy()
    final[4] = v2
    final_parity = code.encode(final)
    for j in range(3):
        d1 = code.parity_delta(j, 1, data[1] ^ v1)
        d2 = code.parity_delta(j, 4, step1[4] ^ v2)
        merged = d1 ^ d2
        assert np.array_equal(parity[j] ^ merged, final_parity[j])


def test_coefficient_bounds():
    code = RSCode(4, 2)
    with pytest.raises(IndexError):
        code.coefficient(2, 0)
    with pytest.raises(IndexError):
        code.coefficient(0, 4)


def test_encode_shape_check():
    code = RSCode(4, 2)
    with pytest.raises(ValueError):
        code.encode(np.zeros((3, 16), dtype=np.uint8))


def test_build_parity_matrix_bounds():
    with pytest.raises(ValueError):
        build_parity_matrix(0, 3)
    with pytest.raises(ValueError):
        build_parity_matrix(250, 10)


def test_decode_matrix_cache_reused():
    code = RSCode(4, 2)
    data, parity = _stripe(code, seed=12)
    available = {0: data[0], 1: data[1], 2: data[2], 4: parity[0]}
    first = code.decode(available, wanted=[3])[3]
    assert list(code._plans) == [((0, 1, 2, 4), (3,))]
    plan = code._plans[(0, 1, 2, 4), (3,)]
    assert plan.shape == (1, 4)  # one row per wanted chunk, not the k x k inverse
    assert np.array_equal(code.decode(available, wanted=[3])[3], first)
    assert code._plans[(0, 1, 2, 4), (3,)] is plan
    code.decode(available, wanted=[3, 5])
    assert len(code._plans) == 2


def test_plan_cache_is_bounded_lru_and_rebuilds_identical_bytes():
    code = RSCode(10, 4)
    data, parity = _stripe(code, seed=13)
    chunks = _chunks(code, data, parity)
    survivor_sets = list(itertools.combinations(range(code.n), code.k))
    survivor_sets = survivor_sets[:: len(survivor_sets) // (3 * rs.PLAN_CACHE_SIZE)]
    assert len(survivor_sets) > 2 * rs.PLAN_CACHE_SIZE

    def decode(rows):
        wanted = [i for i in range(code.n) if i not in rows][:2]
        return code.decode({i: chunks[i] for i in rows}, wanted=wanted)

    first = decode(survivor_sets[0])
    first_key = next(iter(code._plans))
    for rows in survivor_sets[1:]:
        decode(rows)
        assert len(code._plans) <= rs.PLAN_CACHE_SIZE
    assert first_key not in code._plans  # evicted long ago
    again = decode(survivor_sets[0])
    assert next(reversed(code._plans)) == first_key
    for w, buf in first.items():
        assert np.array_equal(again[w], buf) and np.array_equal(buf, chunks[w])
    # least-recently-used, not first-in: a plan that keeps being hit outlives
    # more than PLAN_CACHE_SIZE newer ones
    plan = code._plans[first_key]
    for rows in survivor_sets[1 : 2 * rs.PLAN_CACHE_SIZE]:
        decode(survivor_sets[0])
        decode(rows)
    assert code._plans[first_key] is plan


def _assert_wanted_equals_decode_all_then_select(code, chunks, rows, wanted):
    available = {i: chunks[i] for i in rows}
    everything = {**available, **code.decode(available)}
    out = code.decode(available, wanted=wanted)
    assert list(out) == wanted
    for w in wanted:
        assert np.array_equal(out[w], everything[w])
        assert np.array_equal(out[w], chunks[w])


def test_decode_wanted_equals_decode_all_then_select_every_4_2_survivor_set():
    code = RSCode(4, 2)
    data, parity = _stripe(code, length=96, seed=14)
    chunks = _chunks(code, data, parity)
    for rows in itertools.combinations(range(6), 4):
        missing = [i for i in range(6) if i not in rows]
        for wanted in ([missing[0]], missing[::-1], [5, 0, 3], list(range(6))):
            _assert_wanted_equals_decode_all_then_select(code, chunks, rows, wanted)


def test_decode_wanted_equals_decode_all_then_select_seeded_10_4_survivor_sets():
    code = RSCode(10, 4)
    data, parity = _stripe(code, length=512, seed=15)
    chunks = _chunks(code, data, parity)
    rng = np.random.default_rng(16)
    for _ in range(50):
        rows = sorted(int(i) for i in rng.choice(14, size=10, replace=False))
        n_wanted = int(rng.integers(1, 6))
        wanted = [int(i) for i in rng.choice(14, size=n_wanted, replace=False)]
        _assert_wanted_equals_decode_all_then_select(code, chunks, rows, wanted)


def test_decode_uses_the_first_k_survivors_when_given_more():
    code = RSCode(4, 2)
    data, parity = _stripe(code, seed=17)
    chunks = _chunks(code, data, parity)
    available = {i: chunks[i] for i in (1, 2, 3, 4, 5)}
    assert np.array_equal(code.decode(available)[0], data[0])
    assert list(code._plans) == [((1, 2, 3, 4), (0,))]


def test_decode_returns_buffers_that_own_their_memory():
    code = RSCode(6, 3)
    data, parity = _stripe(code, seed=18)
    available = {i: data[i] for i in range(2, 6)} | {6: parity[0], 8: parity[2]}
    for buf in code.decode(available, wanted=[0, 1, 7]).values():
        assert buf.base is None and buf.flags.owndata and buf.flags.writeable


#: sha256 of the parity bytes produced by the kernel this repo shipped before
#: the packed-lane kernel (computed at commit 5e47c61).  A parity byte is
#: persistent state -- logged, merged, compared by scrub -- so no kernel swap
#: may move one.
ENCODE_GOLDENS = {
    (6, 3, 4096, 20210603): "a20099013439b4d50ffdfd562d55d3d4bf53cc641b081d7ff18a58764cf977a7",
    (10, 4, 16384, 20211004): "4c1051b08d6be3d33e430576e406bd6fa69729bcb231b372c855daa444fb5c96",
}


@pytest.mark.parametrize("k,r,length,seed", sorted(ENCODE_GOLDENS))
def test_encode_parity_bytes_match_committed_golden(k, r, length, seed):
    data = np.random.default_rng(seed).integers(0, 256, size=(k, length), dtype=np.uint8)
    parity = RSCode(k, r).encode(data)
    assert parity.shape == (r, length) and parity.dtype == np.uint8
    assert hashlib.sha256(parity.tobytes()).hexdigest() == ENCODE_GOLDENS[k, r, length, seed]


# ------------------------------------------------- degenerate inputs fail loudly


def _four_of_six():
    code = RSCode(4, 2)
    data, parity = _stripe(code, seed=19)
    return code, {0: data[0], 1: data[1], 4: parity[0], 5: parity[1]}


def test_decode_rejects_negative_wanted_index():
    code, available = _four_of_six()
    with pytest.raises(ValueError, match=r"chunk index -1 outside \[0, 6\)"):
        code.decode(available, wanted=[-1])


def test_decode_rejects_wanted_index_past_n():
    code, available = _four_of_six()
    with pytest.raises(ValueError, match=r"chunk index 6 outside \[0, 6\)"):
        code.decode(available, wanted=[6])


def test_decode_rejects_available_index_past_n():
    code, available = _four_of_six()
    available[9] = available.pop(5)
    with pytest.raises(ValueError, match=r"chunk index 9 outside \[0, 6\)"):
        code.decode(available, wanted=[2])


def test_decode_rejects_survivors_of_unequal_length():
    code, available = _four_of_six()
    available[4] = available[4][:100]
    with pytest.raises(ValueError, match=r"differ in length.*4: \(100,\)"):
        code.decode(available, wanted=[2])


def test_decode_rejects_duplicate_wanted():
    code, available = _four_of_six()
    with pytest.raises(ValueError, match=r"duplicate chunk index in wanted=\[2, 3, 2\]"):
        code.decode(available, wanted=[2, 3, 2])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_roundtrip_random_codes(k, r, seed):
    code = RSCode(k, r)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(k, 64), dtype=np.uint8)
    parity = code.encode(data)
    # drop r random chunks
    drop = rng.choice(k + r, size=r, replace=False)
    chunks = _chunks(code, data, parity)
    available = {i: c for i, c in chunks.items() if i not in set(int(d) for d in drop)}
    out = code.decode(available)
    for i in drop:
        i = int(i)
        expect = data[i] if i < k else parity[i - k]
        assert np.array_equal(out[i], expect)
