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

from repro.ec.gf256 import U8, gf_mul_scalar

_new = object.__new__


def compute_delta(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The paper's ``delta = new - old`` (subtraction is XOR in GF(2^8))."""
    if not (type(old) is type(new) is np.ndarray and old.dtype is new.dtype is U8):
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
    sub-ranges).  The records are slotted: several are minted per update."""

    __slots__ = ()

    def __post_init__(self) -> None:
        payload = self.payload
        if type(payload) is not np.ndarray or payload.dtype is not U8:
            self.payload = np.asarray(payload, dtype=np.uint8)
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")

    @property
    def length(self) -> int:
        return self.payload.size

    @property
    def end(self) -> int:
        return self.offset + self.payload.size


@dataclass(slots=True)
class DeltaRecord(_ByteRange):
    """A data delta in flight from the proxy to log nodes.

    ``data_index`` selects the encoding coefficient at the receiving log node.
    """

    stripe_id: int
    data_index: int
    offset: int
    payload: np.ndarray
    seq: int = 0


@dataclass(slots=True)
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
        """Apply Property 1 at the log node: scale the data delta.

        ``record`` was validated when it was built and scaling keeps its
        offset and its uint8 bytes, so the parity delta is filled field by
        field instead of being validated a second time."""
        delta = _new(cls)
        delta.stripe_id = record.stripe_id
        delta.parity_index = parity_index
        delta.offset = record.offset
        delta.payload = parity_delta_from_data_delta(coefficient, record.payload)
        delta.seq = record.seq
        delta.merged_count = 1
        return delta


def merge_parity_deltas(deltas: list[ParityDelta]) -> ParityDelta:
    """Property 2: collapse parity deltas of one (stripe, parity) into one.

    The merged record spans the union byte range; bytes not covered by any
    source delta stay zero, which is the XOR identity, so applying the merged
    record is equivalent to applying every source record in order.  The
    merge of one delta is that delta, returned as is.
    """
    if not deltas:
        raise ValueError("cannot merge an empty delta list")
    first = deltas[0]
    if len(deltas) == 1:
        return first
    sid, pidx = first.stripe_id, first.parity_index
    lo, hi, seq, total = first.offset, 0, first.seq, 0
    for d in deltas:
        if d.stripe_id != sid or d.parity_index != pidx:
            raise ValueError(
                "can only merge deltas of the same stripe and parity chunk: "
                f"({sid}, {pidx}) vs ({d.stripe_id}, {d.parity_index})"
            )
        end = d.offset + d.payload.size
        if d.offset < lo:
            lo = d.offset
        if end > hi:
            hi = end
        if d.seq > seq:
            seq = d.seq
        total += d.merged_count
    merged = np.zeros(hi - lo, dtype=np.uint8)
    for d in deltas:
        start = d.offset - lo
        merged[start : start + d.payload.size] ^= d.payload
    return ParityDelta(
        stripe_id=sid,
        parity_index=pidx,
        offset=lo,
        payload=merged,
        seq=seq,
        merged_count=total,
    )


def apply_parity_delta(
    parity_chunk: np.ndarray, delta: ParityDelta | DeltaRecord, coefficient: int = 1
) -> None:
    """Fold a delta into a chunk-sized buffer, in place: the one XOR every
    base+delta replay and in-place parity patch goes through.

    A :class:`DeltaRecord` folds the same way (a coalescing buffer merges
    data deltas by Property 2 before any coefficient is applied); with a
    ``coefficient`` it is first scaled by it (Property 1), which is how a
    store patches a DRAM-resident parity without minting a ParityDelta.
    In-place XOR keeps the hot repair path allocation-free (in-place NumPy
    operations are markedly cheaper than ``a = a ^ b``).
    """
    end = delta.offset + delta.payload.size
    if end > parity_chunk.size:
        raise ValueError(
            f"delta [{delta.offset}, {end}) exceeds chunk size {parity_chunk.size}"
        )
    parity_chunk[delta.offset : end] ^= parity_delta_from_data_delta(
        coefficient, delta.payload
    )
