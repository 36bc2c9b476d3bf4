"""Tests for GF(2^8) matrix algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.gf256 import gf_mul
from repro.ec.matrix import SingularMatrixError, gf_matinv, gf_matmul


def _random_matrix(rng, m, n):
    return rng.integers(0, 256, size=(m, n), dtype=np.uint8)


def _reference_matmul(a, b):
    """The field definition, element by element: out[j] = XOR_i a[j, i] * b[i]."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[0]):
        for i in range(a.shape[1]):
            out[j] ^= gf_mul(a[j, i], b[i, :])
    return out


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = _random_matrix(rng, 5, 5)
    eye = np.eye(5, dtype=np.uint8)
    assert np.array_equal(gf_matmul(a, eye), a)
    assert np.array_equal(gf_matmul(eye, a), a)


def test_matmul_shape_check():
    with pytest.raises(ValueError):
        gf_matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))


def test_matmul_associative():
    rng = np.random.default_rng(1)
    a = _random_matrix(rng, 3, 4)
    b = _random_matrix(rng, 4, 5)
    c = _random_matrix(rng, 5, 2)
    assert np.array_equal(gf_matmul(gf_matmul(a, b), c), gf_matmul(a, gf_matmul(b, c)))


def test_matmul_matches_scalar_definition():
    rng = np.random.default_rng(2)
    a = _random_matrix(rng, 3, 3)
    b = _random_matrix(rng, 3, 3)
    assert np.array_equal(gf_matmul(a, b), _reference_matmul(a, b))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_inverse_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    # rejection-sample an invertible matrix
    for _ in range(50):
        m = _random_matrix(rng, n, n)
        try:
            inv = gf_matinv(m)
        except SingularMatrixError:
            continue
        eye = np.eye(n, dtype=np.uint8)
        assert np.array_equal(gf_matmul(m, inv), eye)
        assert np.array_equal(gf_matmul(inv, m), eye)
        return
    pytest.skip("no invertible sample found (vanishingly unlikely)")


def test_singular_raises():
    m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
    with pytest.raises(SingularMatrixError):
        gf_matinv(m)


def test_zero_matrix_singular():
    with pytest.raises(SingularMatrixError):
        gf_matinv(np.zeros((3, 3), dtype=np.uint8))


def test_matinv_requires_square():
    with pytest.raises(ValueError):
        gf_matinv(np.zeros((2, 3), dtype=np.uint8))


def test_matinv_does_not_mutate_input():
    m = np.array([[1, 1], [1, 2]], dtype=np.uint8)
    snapshot = m.copy()
    gf_matinv(m)
    assert np.array_equal(m, snapshot)


def test_matmul_encodes_buffers():
    rng = np.random.default_rng(3)
    mat = _random_matrix(rng, 2, 4)
    bufs = rng.integers(0, 256, size=(4, 128), dtype=np.uint8)
    out = gf_matmul(mat, bufs)
    assert out.shape == (2, 128)
    assert out.flags.owndata and out.flags.c_contiguous
    assert np.array_equal(out, _reference_matmul(mat, bufs))


LAYOUTS = {
    "contiguous": lambda rng, m, n: _random_matrix(rng, m, n),
    "strided": lambda rng, m, n: _random_matrix(rng, m, 2 * n)[:, ::2],
    "transposed": lambda rng, m, n: _random_matrix(rng, n, m).T,
    "fortran": lambda rng, m, n: np.asfortranarray(_random_matrix(rng, m, n)),
}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),  # crosses the 8-lane groups at 9 and 17
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0, 1, 7, 4096]),
    st.sampled_from(sorted(LAYOUTS)),
    st.sampled_from(sorted(LAYOUTS)),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_matmul_matches_field_definition(m, n, p, a_layout, b_layout, readonly, seed):
    rng = np.random.default_rng(seed)
    a = LAYOUTS[a_layout](rng, m, n)
    b = LAYOUTS[b_layout](rng, n, p)
    if readonly:
        a.flags.writeable = False
        b.flags.writeable = False
    snapshot = b.copy()
    out = gf_matmul(a, b)
    assert out.shape == (m, p) and out.dtype == np.uint8
    assert np.array_equal(out, _reference_matmul(a, b))
    assert np.array_equal(b, snapshot)


def test_matmul_empty_inner_dimension_is_zero():
    out = gf_matmul(np.zeros((3, 0), dtype=np.uint8), np.zeros((0, 5), dtype=np.uint8))
    assert out.shape == (3, 5) and not out.any()
