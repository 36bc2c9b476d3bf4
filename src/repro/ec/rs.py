"""Systematic (k, r) Reed-Solomon codes with a true XOR first parity.

LogECMem needs the first parity chunk of every stripe to be the plain XOR of
the data chunks (it lives in DRAM and drives single-failure repair), while the
code as a whole must stay MDS so that *any* k of the k+r chunks rebuild the
stripe.  We get both from a column-scaled Cauchy construction:

* start from the Cauchy matrix ``C[j, i] = 1 / (x_j + y_i)`` with disjoint
  evaluation points ``{x_j}``, ``{y_i}`` (all arithmetic in GF(2^8)); every
  square submatrix of a Cauchy matrix is nonsingular;
* scale column ``i`` by ``(x_0 + y_i)`` so row 0 becomes all ones.  Column
  scaling multiplies each submatrix determinant by a product of nonzero
  scalars, so the submatrix-nonsingularity property survives and the stacked
  generator ``[I; P]`` is MDS for any k + r <= 256.

The per-chunk *parity coefficients* ``P[j, i]`` are exactly the paper's
``a_i^{j-1}`` role: the parity delta of parity ``j`` for an update of data
chunk ``i`` is ``P[j, i] * delta`` (Property 1 of §2.1).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.ec.delta import parity_delta_from_data_delta
from repro.ec.gf256 import GF_INV_TABLE, GF_MUL_TABLE
from repro.ec.matrix import PackedMatrix, SingularMatrixError, gf_matinv, gf_matmul

#: decode plans kept per code (LRU): a long chaos run meets up to C(n, k)
#: survivor sets, and each plan holds ``k * 2 KiB`` of tables per 8 wanted rows
PLAN_CACHE_SIZE = 16


def build_parity_matrix(k: int, r: int) -> np.ndarray:
    """Return the r x k parity matrix with an all-ones first row (MDS)."""
    if k < 1 or r < 1:
        raise ValueError(f"need k >= 1 and r >= 1, got ({k}, {r})")
    if k + r > 256:
        raise ValueError(f"(k={k}, r={r}) exceeds GF(2^8) capacity (k + r <= 256)")
    x = np.arange(r, dtype=np.uint8)          # parity evaluation points
    y = np.arange(r, r + k, dtype=np.uint8)   # data evaluation points
    denom = x[:, None] ^ y[None, :]           # x_j + y_i, never zero (disjoint)
    cauchy = GF_INV_TABLE[denom]
    # scale column i by (x_0 + y_i) so row 0 becomes all ones
    scale = x[0] ^ y
    return GF_MUL_TABLE[cauchy, scale[None, :]]


class RSCode:
    """A systematic (k, r) Reed-Solomon code over GF(2^8).

    Chunk indexing convention (used by every caller in this repo):

    * global indices ``0 .. k-1`` are data chunks,
    * global index ``k`` is the XOR parity (parity row 0),
    * global indices ``k+1 .. k+r-1`` are the logged parities.
    """

    def __init__(self, k: int, r: int):
        self.k = int(k)
        self.r = int(r)
        self.n = self.k + self.r
        self.parity_matrix = build_parity_matrix(self.k, self.r)
        #: ``coefficients[j][i]``: parity row j's coefficient of data chunk i,
        #: as plain ints (the per-update lookup; ``coefficient`` validates)
        self.coefficients = tuple(tuple(int(c) for c in row) for row in self.parity_matrix)
        self.generator = np.concatenate(
            [np.eye(self.k, dtype=np.uint8), self.parity_matrix], axis=0
        )
        self._encoder = PackedMatrix(self.parity_matrix)
        self._plans: OrderedDict[tuple, PackedMatrix] = OrderedDict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RSCode(k={self.k}, r={self.r})"

    # ------------------------------------------------------------------ encode

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``k`` stacked data chunks (k, L) into ``r`` parities (r, L)."""
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ValueError(f"expected (k={self.k}, L) data, got {data.shape}")
        return self._encoder.matmul(data)

    def xor_parity(self, data: np.ndarray) -> np.ndarray:
        """Fast path for parity row 0: plain XOR-reduce of the data chunks."""
        data = np.asarray(data, dtype=np.uint8)
        return np.bitwise_xor.reduce(data, axis=0)

    def coefficient(self, parity_index: int, data_index: int) -> int:
        """Encoding coefficient of data chunk ``data_index`` in parity ``parity_index``."""
        if not 0 <= parity_index < self.r:
            raise IndexError(f"parity index {parity_index} outside [0, {self.r})")
        if not 0 <= data_index < self.k:
            raise IndexError(f"data index {data_index} outside [0, {self.k})")
        return self.coefficients[parity_index][data_index]

    def parity_delta(self, parity_index: int, data_index: int, delta: np.ndarray) -> np.ndarray:
        """Property 1: parity delta of ``parity_index`` for a data delta."""
        return parity_delta_from_data_delta(
            self.coefficient(parity_index, data_index), delta
        )

    # ------------------------------------------------------------------ decode

    def _plan(self, rows: tuple[int, ...], wanted: tuple[int, ...]) -> PackedMatrix:
        """``generator[wanted] @ inv(generator[rows])``, i.e. the ``wanted`` rows
        of ``[inv; P @ inv]``: survivor chunks in, exactly the wanted chunks out."""
        key = (rows, wanted)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan
        try:
            inv = gf_matinv(self.generator[list(rows), :])
        except SingularMatrixError as exc:  # pragma: no cover - MDS guards this
            raise SingularMatrixError(
                f"survivor set {rows} not decodable for (k={self.k}, r={self.r})"
            ) from exc
        coeffs = gf_matmul(self.generator[list(wanted), :], inv)
        plan = self._plans[key] = PackedMatrix(coeffs)
        if len(self._plans) > PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        return plan

    def decode(
        self, available: dict[int, np.ndarray], wanted: list[int] | None = None
    ) -> dict[int, np.ndarray]:
        """Rebuild chunks from any ``k`` survivors.

        ``available`` maps global chunk index -> byte buffer.  ``wanted`` is a
        list of global indices to reconstruct (default: every missing index).
        Returns a dict of reconstructed buffers, each owning its memory.
        """
        if len(available) < self.k:
            raise ValueError(
                f"need at least k={self.k} chunks to decode, got {len(available)}"
            )
        if wanted is None:
            wanted = [i for i in range(self.n) if i not in available]
        wanted = tuple(wanted)
        for i in (*available, *wanted):
            if not 0 <= i < self.n:
                raise ValueError(f"chunk index {i} outside [0, {self.n})")
        if len(set(wanted)) != len(wanted):
            raise ValueError(f"duplicate chunk index in wanted={list(wanted)}")
        rows = tuple(sorted(available))[: self.k]
        survivors = [np.asarray(available[i], dtype=np.uint8) for i in rows]
        if len({s.shape for s in survivors}) != 1:
            shapes = {i: s.shape for i, s in zip(rows, survivors)}
            raise ValueError(f"survivor chunks differ in length: {shapes}")
        block = self._plan(rows, wanted).matmul(np.stack(survivors))
        return {w: block[i].copy() for i, w in enumerate(wanted)}

    def repair_with_xor(
        self, data_index: int, survivors: dict[int, np.ndarray]
    ) -> np.ndarray:
        """Single-failure fast path: rebuild one data chunk from the other
        ``k-1`` data chunks plus the XOR parity (all DRAM-resident in
        HybridPL).  This avoids the general decode-matrix machinery."""
        needed = [i for i in range(self.k) if i != data_index] + [self.k]
        missing = [i for i in needed if i not in survivors]
        if missing:
            raise KeyError(f"XOR repair of chunk {data_index} missing chunks {missing}")
        acc = np.asarray(survivors[self.k], dtype=np.uint8).copy()
        for i in range(self.k):
            if i != data_index:
                acc ^= np.asarray(survivors[i], dtype=np.uint8)
        return acc
