"""Zipfian request choosers, matching YCSB's generators.

:class:`ZipfianGenerator` implements the rejection-free inverse-CDF
approximation of Gray et al. (SIGMOD '94) that YCSB uses, with the standard
skew constant theta = 0.99.  Item 0 is the most popular.

:class:`ScrambledZipfian` composes it with an FNV-1a hash so popular items
are spread uniformly over the key space -- this is YCSB's default request
chooser and what the paper's workloads use.
"""

from __future__ import annotations

import numpy as np

ZIPFIAN_CONSTANT = 0.99

FNV_OFFSET_64 = 0xCBF29CE484222325
FNV_PRIME_64 = 0x100000001B3


def fnv1a_64(value: int | np.ndarray) -> int | np.ndarray:
    """FNV-1a hash of an integer's 8 little-endian bytes (YCSB's scrambler).

    ``value`` is a Python int or a ``uint64`` array, hashed elementwise: the
    array's multiply wraps mod 2^64, which is what the mask does to an int.
    """
    h = FNV_OFFSET_64
    for _ in range(8):
        h = ((h ^ (value & 0xFF)) * FNV_PRIME_64) & 0xFFFFFFFFFFFFFFFF
        value = value >> 8
    return h


def zeta(n: int, theta: float) -> float:
    """Generalised harmonic number sum_{i=1..n} 1/i^theta (vectorised)."""
    if n <= 0:
        return 0.0
    return float(np.sum(1.0 / np.arange(1, n + 1, dtype=np.float64) ** theta))


#: the skew's derived constants, shared by every generator
_ZETA2 = zeta(2, ZIPFIAN_CONSTANT)
_ALPHA = 1.0 / (1.0 - ZIPFIAN_CONSTANT)
_RANK1_BOUND = 1.0 + 0.5**ZIPFIAN_CONSTANT  # u * zetan below this draws rank 0 or 1


def _eta(n, zetan):
    """YCSB's eta for a population of ``n`` items summing to ``zetan``
    (scalars, or per-draw arrays).  At n <= 2 every draw falls in
    :meth:`ZipfianGenerator.next`'s first two branches (u * zetan < zetan <=
    ``_RANK1_BOUND``) and eta is never read: it is 0 there, where the formula
    would divide zero by zero."""
    if np.ndim(n) == 0:
        if n <= 2:
            return 0.0
        return (1 - (2.0 / n) ** (1 - ZIPFIAN_CONSTANT)) / (1 - _ZETA2 / zetan)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = (1 - (2.0 / n) ** (1 - ZIPFIAN_CONSTANT)) / (1 - _ZETA2 / zetan)
    eta[n <= 2] = 0.0
    return eta


class ZipfianGenerator:
    """Zipf-distributed integers in [0, n), rank 0 most popular."""

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise ValueError(f"need at least one item, got n={n}")
        self.n = n
        self._rng = np.random.default_rng(seed)
        self.zetan = zeta(n, ZIPFIAN_CONSTANT)
        self.eta = _eta(n, self.zetan)

    def grow(self, count: int = 1) -> None:
        """Extend the population by ``count`` items (YCSB-style incremental
        zeta): add the new terms to ``zetan`` and recompute ``eta`` so the
        distribution tracks the enlarged item set instead of staying frozen
        at the initial population."""
        if count <= 0:
            return
        new_n = self.n + count
        self.zetan += float(
            np.sum(1.0 / np.arange(self.n + 1, new_n + 1, dtype=np.float64) ** ZIPFIAN_CONSTANT)
        )
        self.n = new_n
        self.eta = _eta(new_n, self.zetan)

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < _RANK1_BOUND:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1.0) ** _ALPHA)

    def ranks(self, count: int, n, zetan) -> np.ndarray:
        """``count`` draws of :meth:`next` as one array.  ``n`` and ``zetan``
        are the population each draw sees: this generator's own, or per-draw
        arrays for a population that grows between draws (see :meth:`grow`)."""
        u = self._rng.random(count)
        eta = _eta(n, zetan)
        uz = u * zetan
        out = (n * (eta * u - eta + 1.0) ** _ALPHA).astype(np.int64)
        out[uz < _RANK1_BOUND] = 1
        out[uz < 1.0] = 0
        return out

    def sample(self, count: int) -> np.ndarray:
        """Vectorised batch of ``count`` draws (same distribution as next())."""
        out = self.ranks(count, self.n, self.zetan)
        np.clip(out, 0, self.n - 1, out=out)
        return out


class LatestGenerator:
    """YCSB's "latest" chooser: recency-skewed popularity.

    Draws a Zipf-distributed *age* and subtracts it from the newest item, so
    recently-inserted items are hottest (workload D's distribution).  Call
    :meth:`grow` when an insert extends the population.
    """

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise ValueError(f"need at least one item, got n={n}")
        self.n = n
        self._zipf = ZipfianGenerator(n, seed=seed)

    def grow(self, count: int = 1) -> None:
        """The population grew by ``count`` items (newest id = n - 1).

        The underlying age distribution grows with it -- otherwise zetan/eta
        would stay frozen at the initial population and the recency skew
        would drift from YCSB's semantics as inserts accumulate."""
        self.n += count
        self._zipf.grow(count)

    def next(self) -> int:
        age = self._zipf.next()
        return max(0, self.n - 1 - age)

    def sample(self, count: int) -> np.ndarray:
        ages = self._zipf.sample(count)
        return np.maximum(0, self.n - 1 - ages)


class ScrambledZipfian:
    """Zipfian popularity spread over the key space by FNV hashing."""

    def __init__(self, n: int, seed: int = 0):
        self.n = n
        self._zipf = ZipfianGenerator(n, seed=seed)

    def next(self) -> int:
        return fnv1a_64(self._zipf.next()) % self.n

    def sample(self, count: int) -> np.ndarray:
        ranks = self._zipf.sample(count).astype(np.uint64)
        return (fnv1a_64(ranks) % self.n).astype(np.int64)
