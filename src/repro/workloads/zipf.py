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


class ZipfianGenerator:
    """Zipf-distributed integers in [0, n), rank 0 most popular."""

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT, seed: int = 0):
        if n < 1:
            raise ValueError(f"need at least one item, got n={n}")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.n = n
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        self.zetan = zeta(n, theta)
        self.zeta2 = zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = self._eta()

    def _eta(self) -> float:
        return (1 - (2.0 / self.n) ** (1 - self.theta)) / (1 - self.zeta2 / self.zetan)

    def grow(self, count: int = 1) -> None:
        """Extend the population by ``count`` items (YCSB-style incremental
        zeta): add the new terms to ``zetan`` and recompute ``eta`` so the
        distribution tracks the enlarged item set instead of staying frozen
        at the initial population."""
        if count <= 0:
            return
        new_n = self.n + count
        self.zetan += float(
            np.sum(1.0 / np.arange(self.n + 1, new_n + 1, dtype=np.float64) ** self.theta)
        )
        self.n = new_n
        self.eta = self._eta()

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha)

    def ranks(self, count: int, n, zetan) -> np.ndarray:
        """``count`` draws of :meth:`next` as one array.  ``n`` and ``zetan``
        are the population each draw sees: this generator's own, or per-draw
        arrays for a population that grows between draws (see :meth:`grow`)."""
        u = self._rng.random(count)
        eta = (1 - (2.0 / n) ** (1 - self.theta)) / (1 - self.zeta2 / zetan)
        uz = u * zetan
        out = (n * (eta * u - eta + 1.0) ** self.alpha).astype(np.int64)
        out[uz < 1.0 + 0.5**self.theta] = 1
        out[uz < 1.0] = 0
        return out

    def sample(self, count: int) -> np.ndarray:
        """Vectorised batch of ``count`` draws (same distribution as next())."""
        out = self.ranks(count, self.n, self.zetan)
        np.clip(out, 0, self.n - 1, out=out)
        return out


class UniformGenerator:
    """Uniform key chooser (YCSB's uniform distribution)."""

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise ValueError(f"need at least one item, got n={n}")
        self.n = n
        self._rng = np.random.default_rng(seed)

    def next(self) -> int:
        return int(self._rng.integers(0, self.n))

    def sample(self, count: int) -> np.ndarray:
        return self._rng.integers(0, self.n, size=count, dtype=np.int64)


class HotspotGenerator:
    """YCSB's hotspot chooser: ``hot_op_fraction`` of requests hit a
    contiguous ``hot_set_fraction`` of the key space; the rest are uniform
    over the cold set."""

    def __init__(
        self,
        n: int,
        hot_set_fraction: float = 0.2,
        hot_op_fraction: float = 0.8,
        seed: int = 0,
    ):
        if n < 1:
            raise ValueError(f"need at least one item, got n={n}")
        if not 0 < hot_set_fraction < 1 or not 0 <= hot_op_fraction <= 1:
            raise ValueError("fractions must be in (0,1) / [0,1]")
        self.n = n
        self.hot_count = max(1, int(n * hot_set_fraction))
        self.hot_op_fraction = hot_op_fraction
        self._rng = np.random.default_rng(seed)

    def next(self) -> int:
        # a one-item population is all hot set: there is no cold set to draw from
        if self._rng.random() < self.hot_op_fraction or self.hot_count == self.n:
            return int(self._rng.integers(0, self.hot_count))
        return int(self._rng.integers(self.hot_count, self.n))

    def sample(self, count: int) -> np.ndarray:
        hot = self._rng.random(count) < self.hot_op_fraction
        if self.hot_count == self.n:  # n == 1: no cold set, every draw is hot
            return self._rng.integers(0, self.hot_count, size=count, dtype=np.int64)
        out = self._rng.integers(self.hot_count, self.n, size=count, dtype=np.int64)
        hot_draws = self._rng.integers(0, self.hot_count, size=count, dtype=np.int64)
        out[hot] = hot_draws[hot]
        return out


class LatestGenerator:
    """YCSB's "latest" chooser: recency-skewed popularity.

    Draws a Zipf-distributed *age* and subtracts it from the newest item, so
    recently-inserted items are hottest (workload D's distribution).  Call
    :meth:`grow` when an insert extends the population.
    """

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT, seed: int = 0):
        if n < 1:
            raise ValueError(f"need at least one item, got n={n}")
        self.n = n
        self._zipf = ZipfianGenerator(n, theta=theta, seed=seed)

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

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT, seed: int = 0):
        self.n = n
        self._zipf = ZipfianGenerator(n, theta=theta, seed=seed)

    def next(self) -> int:
        return fnv1a_64(self._zipf.next()) % self.n

    def sample(self, count: int) -> np.ndarray:
        ranks = self._zipf.sample(count).astype(np.uint64)
        return (fnv1a_64(ranks) % self.n).astype(np.int64)
