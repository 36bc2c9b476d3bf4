"""Systematic Vandermonde Reed-Solomon construction: the test-only reference
``tests/test_vandermonde.py`` cross-validates the codec against.

The main codec (:mod:`repro.ec.rs`) uses a column-scaled Cauchy parity
matrix.  This module builds the other classic systematic construction --
start from a (k+r) x k Vandermonde matrix over distinct evaluation points and
Gauss-eliminate the top into the identity -- so tests can cross-validate the
two: both must be MDS, and decoding data encoded by one construction with the
other's machinery must round-trip (the *data* is construction-independent
even though parity bytes differ).

The classic construction does not naturally yield an all-ones first parity
row, which is exactly why the main codec exists; :func:`xor_row_gap`
quantifies that difference for the documentation tests.
"""

from __future__ import annotations

import numpy as np

from repro.ec.gf256 import gf_pow
from repro.ec.matrix import gf_matinv, gf_matmul


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """V[i, j] = alpha_i ** j with alpha_i = i (distinct points 0..rows-1)."""
    if rows > 256:
        raise ValueError(f"at most 256 distinct points in GF(2^8), got {rows}")
    out = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = gf_pow(i, j) if i else (1 if j == 0 else 0)
    return out


def systematic_generator(k: int, r: int) -> np.ndarray:
    """(k+r) x k systematic generator: top k rows are the identity.

    ``G = V @ inv(V[:k])``; every k x k submatrix of V is nonsingular
    (distinct evaluation points), and right-multiplying by a fixed invertible
    matrix preserves that, so the result is MDS.
    """
    if k < 1 or r < 0 or k + r > 256:
        raise ValueError(f"invalid (k={k}, r={r})")
    v = vandermonde(k + r, k)
    top_inv = gf_matinv(v[:k])
    return gf_matmul(v, top_inv)


class VandermondeRS:
    """Minimal encoder/decoder over the systematic Vandermonde generator."""

    def __init__(self, k: int, r: int):
        self.k = k
        self.r = r
        self.n = k + r
        self.generator = systematic_generator(k, r)
        self.parity_matrix = self.generator[k:]

    def encode(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ValueError(f"expected (k={self.k}, L) data, got {data.shape}")
        return gf_matmul(self.parity_matrix, data)

    def decode(
        self, available: dict[int, np.ndarray], wanted: list[int]
    ) -> dict[int, np.ndarray]:
        if len(available) < self.k:
            raise ValueError(f"need k={self.k} chunks, got {len(available)}")
        rows = sorted(available)[: self.k]
        inv = gf_matinv(self.generator[rows, :])
        stacked = np.stack([np.asarray(available[i], dtype=np.uint8) for i in rows])
        data = gf_matmul(inv, stacked)
        out: dict[int, np.ndarray] = {}
        for w in wanted:
            if w < self.k:
                out[w] = data[w].copy()
            else:
                out[w] = gf_matmul(self.parity_matrix[[w - self.k], :], data)[0]
        return out


def xor_row_gap(k: int, r: int) -> int:
    """How many entries of the first Vandermonde parity row differ from 1.

    Nonzero for every practical (k, r): the classic construction has no XOR
    parity, which is the concrete reason :mod:`repro.ec.rs` uses the
    column-scaled Cauchy construction instead."""
    pm = systematic_generator(k, r)[k:]
    return int(np.count_nonzero(pm[0] != 1))
