"""Analytic chunk-transfer model of the four update schemes (§2.2, Figure 1).

For one data-chunk update under a (k, r) code, counts the chunk reads, chunk
writes, and stored chunks of:

* direct reconstruction  -- read the k-1 untouched data chunks, re-encode,
* in-place update        -- read the old data + r old parities, write back,
* full-stripe update     -- batch m new chunks into a new stripe; GC later
  re-reads the k-m active chunks (update-light) or releases a fully-replaced
  stripe for free (update-heavy),
* parity logging         -- read the old data chunk, append r parity deltas.

This is the quantitative form of the paper's §2.2.1 wide-stripe argument:
delta-based schemes cost O(r) regardless of k, while full-stripe update's GC
cost grows with k.  Verified against Figure 1's concrete numbers in the
tests, and swept over k by the ``wide-stripe`` artifact (``repro exp``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransferCost:
    """Per-update chunk traffic and steady-state storage of one scheme."""

    scheme: str
    chunk_reads: float
    chunk_writes: float
    stored_chunks: float  # stripe-local chunks resident after the update

    @property
    def total_transfers(self) -> float:
        return self.chunk_reads + self.chunk_writes


def direct_reconstruction(k: int, r: int) -> TransferCost:
    """Read everything untouched, recompute all parities."""
    return TransferCost(
        scheme="direct",
        chunk_reads=k - 1,
        chunk_writes=1 + r,
        stored_chunks=k + r,
    )


def in_place(k: int, r: int) -> TransferCost:
    """Figure 1(a): delta through every parity; 3 parity reads at r=3."""
    return TransferCost(
        scheme="in-place",
        chunk_reads=1 + r,          # old data chunk + r old parities
        chunk_writes=1 + r,
        stored_chunks=k + r,        # 9 for (6,3)
    )


def full_stripe(k: int, r: int, new_chunks_per_stripe: float) -> TransferCost:
    """Figure 1(b)/(c): m new chunks batch into a new stripe.

    Per update (amortised over the m new chunks of a GC'd stripe): the new
    chunk write plus r/m parity writes, plus (k-m)/m active-chunk reads and
    the new parity set for the re-formed stripe.  Stored chunks count both
    stripes until GC completes (18 for the update-heavy (6,3) example, 13
    for the update-light one)."""
    m = float(new_chunks_per_stripe)
    if not 0 < m <= k:
        raise ValueError(f"new chunks per stripe must be in (0, k], got {m}")
    return TransferCost(
        scheme="full-stripe",
        chunk_reads=(k - m) / m,    # 0 when the stripe is fully replaced
        chunk_writes=1 + r / m,     # the new chunk + its share of new parities
        stored_chunks=(k + r) + m + r,  # old stripe + new versions until GC
    )


def parity_logging(k: int, r: int) -> TransferCost:
    """Figure 1(d): no parity reads; r deltas appended to logs."""
    return TransferCost(
        scheme="parity-logging",
        chunk_reads=1,              # old data chunk, to compute the delta
        chunk_writes=1 + r,         # new data + r logged deltas
        stored_chunks=k + r + r,    # old parities + logged deltas: 12 at (6,3)
    )


def hybrid_pl(k: int, r: int) -> TransferCost:
    """HybridPL (§3.3): in-place data + XOR parity, deltas for the rest."""
    return TransferCost(
        scheme="hybrid-pl",
        chunk_reads=2,              # old data chunk + XOR parity
        chunk_writes=1 + r,         # new data + new XOR + (r-1) deltas
        stored_chunks=k + r + (r - 1),
    )


def sweep_k(
    ks: list[int], r: int = 4, new_chunks_per_stripe: float = 1.0
) -> list[dict]:
    """Per-update total transfers vs k for every scheme (the §2.2.1 table)."""
    rows = []
    for k in ks:
        for cost in (
            direct_reconstruction(k, r),
            in_place(k, r),
            full_stripe(k, r, new_chunks_per_stripe),
            parity_logging(k, r),
            hybrid_pl(k, r),
        ):
            rows.append(
                {
                    "k": k,
                    "scheme": cost.scheme,
                    "reads": cost.chunk_reads,
                    "writes": cost.chunk_writes,
                    "total": cost.total_transfers,
                }
            )
    return rows
