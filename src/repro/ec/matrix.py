"""Matrix algebra over GF(2^8).

Provides the matrix product used for encoding and decoding, and Gauss-Jordan
inversion used to decode a stripe from an arbitrary surviving subset of chunks.
Matrices are ``uint8`` ndarrays; there is no overflow because every product
goes through the field tables.

The product is a *packed-lane table kernel*.  A coefficient matrix ``a``
(m, n) is compiled once by :class:`PackedMatrix` into, per group of up to
eight output rows, an ``(n, 256)`` ``uint64`` table whose entry ``[i, v]``
carries ``a[j, i] * v`` for the group's rows ``j`` in its eight byte lanes.
One 1-D gather ``np.take(table[i], b[i])`` per *input* row then yields that
row's contribution to every output row of the group at once; contributions
are XOR-accumulated as ``uint64`` and the lanes unpacked with a single byte
view.  The gathers run with ``mode="clip"`` to skip NumPy's bounds check: the
indices are ``uint8`` bytes and each table row has 256 entries, so every index
is in range by construction and nothing is ever clipped.  Temporaries are two
``uint64`` rows of the chunk length, whatever ``n`` is.
"""

from __future__ import annotations

import numpy as np

from repro.ec.gf256 import GF_INV_TABLE, GF_MUL_TABLE

#: output rows packed into the byte lanes of one ``uint64`` table
LANES = 8


class SingularMatrixError(ValueError):
    """Raised when a decode matrix is not invertible over GF(2^8)."""


class PackedMatrix:
    """A coefficient matrix compiled into packed-lane tables (module docstring).

    Building costs one gather of ``m * n * 256`` bytes; callers that reuse a
    matrix (:class:`repro.ec.rs.RSCode`) keep the instance.
    """

    __slots__ = ("shape", "_tables")

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=np.uint8)
        if a.ndim != 2:
            raise ValueError(f"coefficient matrix must be 2-D, got {a.shape}")
        self.shape = a.shape
        self._tables = []
        for g in range(0, a.shape[0], LANES):
            rows = a[g : g + LANES]
            lanes = np.zeros((a.shape[1], 256, LANES), dtype=np.uint8)
            lanes[:, :, : len(rows)] = GF_MUL_TABLE[rows].transpose(1, 2, 0)
            self._tables.append(lanes.view(np.uint64)[:, :, 0])

    def matmul(self, b: np.ndarray) -> np.ndarray:
        """``a @ b`` over GF(2^8) for ``b`` of shape (n, p)."""
        b = np.asarray(b, dtype=np.uint8)
        m, n = self.shape
        if b.ndim != 2 or b.shape[0] != n:
            raise ValueError(f"incompatible shapes {self.shape} x {b.shape}")
        p = b.shape[1]
        out = np.empty((m, p), dtype=np.uint8)
        tmp = np.empty(p, dtype=np.uint64)
        for g, table in enumerate(self._tables):
            acc = np.zeros(p, dtype=np.uint64)
            for i in range(n):
                table[i].take(b[i], out=tmp, mode="clip")
                acc ^= tmp
            rows = out[g * LANES : (g + 1) * LANES]
            rows[:] = acc.view(np.uint8).reshape(p, LANES).T[: len(rows)]
        return out


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b`` over GF(2^8); ``a`` is (m, n), ``b`` is (n, p)."""
    return PackedMatrix(a).matmul(b)


def gf_matinv(mat: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.

    Raises :class:`SingularMatrixError` if the matrix has no inverse.
    """
    mat = np.asarray(mat, dtype=np.uint8)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got {mat.shape}")
    n = mat.shape[0]
    aug = np.concatenate([mat.copy(), np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        # Find a pivot (any nonzero entry; no magnitude concerns in GF).
        pivot_rows = np.nonzero(aug[col:, col])[0]
        if pivot_rows.size == 0:
            raise SingularMatrixError("matrix is singular over GF(2^8)")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv_p = GF_INV_TABLE[aug[col, col]]
        aug[col] = GF_MUL_TABLE[inv_p][aug[col]]
        # Eliminate the column from every other row in one vectorised pass.
        factors = aug[:, col].copy()
        factors[col] = 0
        aug ^= GF_MUL_TABLE[factors[:, None], aug[col][None, :]]
    return aug[:, n:].copy()
