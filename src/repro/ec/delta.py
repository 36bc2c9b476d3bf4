"""Delta algebra: Properties 1 and 2 of the paper (§2.1).

* ``delta``          -- change between old and new data chunk bytes (XOR).
* ``parity delta``   -- coefficient * delta, per parity chunk (Property 1).
* ``merging``        -- multiple parity deltas of the same parity chunk
  collapse into one by XOR over their byte ranges (Property 2); this is what
  merge-based buffer logging and PLM exploit.

A :class:`DeltaRecord` is a *data* delta as shipped by the proxy to log nodes
(log nodes multiply by their own coefficient locally); a :class:`ParityDelta`
is the materialised per-parity record that actually lands in a log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ec.gf256 import gf_mul_scalar


def compute_delta(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The paper's ``delta = new - old`` (subtraction is XOR in GF(2^8))."""
    old = np.asarray(old, dtype=np.uint8)
    new = np.asarray(new, dtype=np.uint8)
    if old.shape != new.shape:
        raise ValueError(f"delta shapes differ: {old.shape} vs {new.shape}")
    return old ^ new


def parity_delta_from_data_delta(coefficient: int, delta: np.ndarray) -> np.ndarray:
    """Property 1: the parity delta is the data delta scaled by the chunk's
    encoding coefficient.  The XOR parity row's coefficient is 1, so its
    parity delta *is* the data delta (returned as is, never mutated)."""
    return delta if coefficient == 1 else gf_mul_scalar(coefficient, delta)


class _ByteRange:
    """What both delta records share: a ``payload`` of bytes at ``offset``
    inside a chunk (objects are packed into chunks, so updates touch
    sub-ranges)."""

    def __post_init__(self) -> None:
        self.payload = np.asarray(self.payload, dtype=np.uint8)
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")

    @property
    def length(self) -> int:
        return self.payload.size

    @property
    def end(self) -> int:
        return self.offset + self.payload.size


@dataclass
class DeltaRecord(_ByteRange):
    """A data delta in flight from the proxy to log nodes.

    ``data_index`` selects the encoding coefficient at the receiving log node.
    """

    stripe_id: int
    data_index: int
    offset: int
    payload: np.ndarray
    seq: int = 0


@dataclass
class ParityDelta(_ByteRange):
    """A materialised parity delta for one parity chunk of one stripe."""

    stripe_id: int
    parity_index: int
    offset: int
    payload: np.ndarray
    seq: int = 0
    #: number of source deltas folded into this record (1 = unmerged)
    merged_count: int = field(default=1)

    @classmethod
    def from_data_delta(
        cls, record: DeltaRecord, parity_index: int, coefficient: int
    ) -> "ParityDelta":
        """Apply Property 1 at the log node: scale the data delta."""
        return cls(
            stripe_id=record.stripe_id,
            parity_index=parity_index,
            offset=record.offset,
            payload=parity_delta_from_data_delta(coefficient, record.payload),
            seq=record.seq,
        )


def merge_parity_deltas(deltas: list[ParityDelta]) -> ParityDelta:
    """Property 2: collapse parity deltas of one (stripe, parity) into one.

    The merged record spans the union byte range; bytes not covered by any
    source delta stay zero, which is the XOR identity, so applying the merged
    record is equivalent to applying every source record in order.
    """
    if not deltas:
        raise ValueError("cannot merge an empty delta list")
    sid = deltas[0].stripe_id
    pidx = deltas[0].parity_index
    for d in deltas[1:]:
        if d.stripe_id != sid or d.parity_index != pidx:
            raise ValueError(
                "can only merge deltas of the same stripe and parity chunk: "
                f"({sid}, {pidx}) vs ({d.stripe_id}, {d.parity_index})"
            )
    lo = min(d.offset for d in deltas)
    hi = max(d.end for d in deltas)
    merged = np.zeros(hi - lo, dtype=np.uint8)
    total = 0
    for d in deltas:
        merged[d.offset - lo : d.end - lo] ^= d.payload
        total += d.merged_count
    return ParityDelta(
        stripe_id=sid,
        parity_index=pidx,
        offset=lo,
        payload=merged,
        seq=max(d.seq for d in deltas),
        merged_count=total,
    )


def apply_parity_delta(parity_chunk: np.ndarray, delta: ParityDelta | DeltaRecord) -> None:
    """Fold a delta into a chunk-sized buffer, in place: the one XOR every
    base+delta replay and in-place parity patch goes through.

    A :class:`DeltaRecord` folds the same way (a coalescing buffer merges
    data deltas by Property 2 before any coefficient is applied).  In-place
    XOR keeps the hot repair path allocation-free (in-place NumPy operations
    are markedly cheaper than ``a = a ^ b``).
    """
    end = delta.end
    if end > parity_chunk.size:
        raise ValueError(
            f"delta [{delta.offset}, {end}) exceeds chunk size {parity_chunk.size}"
        )
    parity_chunk[delta.offset : end] ^= delta.payload
