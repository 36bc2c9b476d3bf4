"""Unit and property tests for GF(2^8) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import gf256
from repro.ec.gf256 import (
    GF_EXP,
    GF_LOG,
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_mul_scalar,
    gf_pow,
)

elem = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


def test_exp_log_roundtrip():
    for a in range(1, 256):
        assert int(GF_EXP[GF_LOG[a]]) == a


def test_exp_table_periodicity():
    assert np.array_equal(GF_EXP[0:255], GF_EXP[255:510])


def test_mul_identity_and_zero():
    a = np.arange(256, dtype=np.uint8)
    assert np.array_equal(gf_mul(a, 1), a)
    assert np.array_equal(gf_mul(a, 0), np.zeros(256, dtype=np.uint8))


def test_mul_known_values():
    # 2 * 0x80 wraps through the primitive polynomial 0x11D
    assert int(gf_mul(2, 0x80)) == (0x100 ^ 0x11D)
    assert int(gf_mul(3, 7)) == 9  # (x+1)(x^2+x+1) = x^3 + 1 -> 0b1001


@given(elem, elem)
def test_mul_commutative(a, b):
    assert int(gf_mul(a, b)) == int(gf_mul(b, a))


@given(elem, elem, elem)
def test_mul_associative(a, b, c):
    assert int(gf_mul(gf_mul(a, b), c)) == int(gf_mul(a, gf_mul(b, c)))


@given(elem, elem, elem)
def test_distributive(a, b, c):
    left = int(gf_mul(a, gf_add(b, c)))
    right = int(gf_add(gf_mul(a, b), gf_mul(a, c)))
    assert left == right


@given(nonzero)
def test_inverse(a):
    assert int(gf_mul(a, gf_inv(a))) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


@given(elem, nonzero)
def test_div_is_mul_by_inverse(a, b):
    assert int(gf_div(a, b)) == int(gf_mul(a, gf_inv(b)))


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_div(5, 0)


@given(nonzero, st.integers(min_value=0, max_value=600))
def test_pow_matches_repeated_mul(a, n):
    acc = 1
    for _ in range(n):
        acc = int(gf_mul(acc, a))
    assert gf_pow(a, n) == acc


def test_pow_zero_base():
    assert gf_pow(0, 0) == 1
    assert gf_pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        gf_pow(0, -1)


def test_pow_negative_exponent():
    a = 37
    assert gf_pow(a, -1) == gf_inv(a)


def test_mul_scalar_matches_elementwise():
    rng = np.random.default_rng(0)
    buf = rng.integers(0, 256, size=4096, dtype=np.uint8)
    for c in (0, 1, 2, 0x53, 255):
        expect = gf_mul(np.full_like(buf, c), buf)
        assert np.array_equal(gf_mul_scalar(c, buf), expect)


def test_mul_scalar_rejects_out_of_range():
    with pytest.raises(ValueError):
        gf_mul_scalar(256, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        gf_mul_scalar(-1, np.zeros(4, dtype=np.uint8))


def test_mul_scalar_rejects_out_of_range_buffer_values():
    """A non-uint8 buffer is range-checked, never wrapped (300 -> 44)."""
    for bad in ([300, 2], [2, -1]):
        with pytest.raises(ValueError, match="outside GF"):
            gf_mul_scalar(3, np.array(bad))
    assert np.array_equal(gf_mul_scalar(3, np.array([255, 2])), gf_mul(3, [255, 2]))
    assert gf_mul_scalar(3, np.array([], dtype=np.int64)).size == 0


def test_mul_scalar_keeps_shape_and_handles_strided_input():
    buf = np.arange(64, dtype=np.uint8).reshape(4, 16)[:, ::2]
    out = gf_mul_scalar(0x53, buf)
    assert out.shape == buf.shape
    assert np.array_equal(out, gf_mul(np.uint8(0x53), buf))


def test_mul_scalar_copies_for_identity():
    buf = np.arange(16, dtype=np.uint8)
    out = gf_mul_scalar(1, buf)
    out[0] = 99
    assert buf[0] == 0  # must not alias the input


def test_addition_is_self_inverse():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, size=1024, dtype=np.uint8)
    b = rng.integers(0, 256, size=1024, dtype=np.uint8)
    assert np.array_equal(gf_add(gf_add(a, b), b), a)


def test_mul_table_symmetric():
    assert np.array_equal(gf256.GF_MUL_TABLE, gf256.GF_MUL_TABLE.T)


@settings(max_examples=25)
@given(st.lists(elem, min_size=1, max_size=64))
def test_vectorised_matches_scalar(xs):
    arr = np.array(xs, dtype=np.uint8)
    c = 0x1D
    out = gf_mul(arr, np.full_like(arr, c))
    for i, x in enumerate(xs):
        assert int(out[i]) == int(gf_mul(x, c))
