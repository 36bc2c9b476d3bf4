"""Cross-validation of the Cauchy codec against a systematic Vandermonde RS."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.matrix import gf_matinv
from repro.ec.rs import RSCode
from tests.vandermonde_reference import (
    VandermondeRS,
    systematic_generator,
    vandermonde,
    xor_row_gap,
)


def test_vandermonde_structure():
    v = vandermonde(4, 3)
    assert v[0, 0] == 1 and v[0, 1] == 0  # alpha_0 = 0
    assert v[2, 0] == 1 and v[2, 1] == 2 and v[2, 2] == 4  # alpha_2 = 2
    with pytest.raises(ValueError):
        vandermonde(300, 3)


def test_systematic_top_is_identity():
    g = systematic_generator(5, 3)
    assert np.array_equal(g[:5], np.eye(5, dtype=np.uint8))


@pytest.mark.parametrize("k,r", [(4, 2), (6, 3), (10, 4)])
def test_vandermonde_is_mds(k, r):
    g = systematic_generator(k, r)
    for rows in itertools.combinations(range(k + r), k):
        gf_matinv(g[list(rows), :])  # must not raise


@pytest.mark.parametrize("k,r", [(4, 2), (6, 3), (10, 4), (15, 3)])
def test_vandermonde_roundtrip(k, r):
    code = VandermondeRS(k, r)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(k, 64), dtype=np.uint8)
    parity = code.encode(data)
    chunks = {i: data[i] for i in range(k)}
    chunks.update({k + j: parity[j] for j in range(r)})
    lost = list(range(min(r, k)))
    available = {i: c for i, c in chunks.items() if i not in lost}
    out = code.decode(available, wanted=lost)
    for i in lost:
        assert np.array_equal(out[i], data[i])


def test_decode_insufficient_raises():
    code = VandermondeRS(4, 2)
    with pytest.raises(ValueError):
        code.decode({0: np.zeros(4, dtype=np.uint8)}, wanted=[1])
    with pytest.raises(ValueError):
        code.encode(np.zeros((3, 4), dtype=np.uint8))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_constructions_agree_on_data(k, r, seed):
    """Both codecs must recover identical data from k survivors, even though
    their parity bytes differ."""
    cauchy = RSCode(k, r)
    vander = VandermondeRS(k, r)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(k, 32), dtype=np.uint8)
    for code in (cauchy, vander):
        parity = code.encode(data)
        chunks = {i: data[i] for i in range(k)}
        chunks.update({k + j: parity[j] for j in range(r)})
        drop = rng.choice(k, size=min(r, k), replace=False)
        available = {
            i: c for i, c in chunks.items() if i not in {int(d) for d in drop}
        }
        out = code.decode(available, wanted=[int(d) for d in drop])
        for i in drop:
            assert np.array_equal(out[int(i)], data[int(i)])


def test_parity_bytes_differ_between_constructions():
    cauchy = RSCode(6, 3)
    vander = VandermondeRS(6, 3)
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=(6, 32), dtype=np.uint8)
    assert not np.array_equal(cauchy.encode(data), vander.encode(data))


@pytest.mark.parametrize("k,r", [(4, 2), (6, 3), (10, 4), (12, 4), (16, 4)])
def test_vandermonde_has_no_xor_parity(k, r):
    """The design reason for the Cauchy construction: the classic systematic
    Vandermonde parity's first row is generally NOT all ones (a curious
    exception exists at (15,3), but nothing guarantees it), while the
    production codec's first parity row is exactly XOR for every code."""
    assert xor_row_gap(k, r) > 0
    assert np.all(RSCode(k, r).parity_matrix[0] == 1)


def test_vandermonde_xor_gap_is_not_guaranteed_zero_anywhere():
    # document the (15,3) coincidence so nobody "fixes" it into an invariant
    assert xor_row_gap(15, 3) == 0
    assert np.all(RSCode(15, 3).parity_matrix[0] == 1)
