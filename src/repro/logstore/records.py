"""Log records: the unit a log node buffers and flushes.

A record is either a *base parity chunk* (the r-1 non-XOR parities written at
stripe-creation time go to log nodes, §4.1) or a *parity delta* produced from
an update's data delta (Property 1, computed at the log node).  Records carry
their logical byte size so that disk accounting is independent of the
physical payload scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ec.delta import ParityDelta, apply_parity_delta, merge_parity_deltas
from repro.ec.gf256 import U8


@dataclass(init=False, slots=True)
class LogRecord:
    """One buffered/persisted log entry for a (stripe, parity) pair."""

    stripe_id: int
    parity_index: int
    logical_nbytes: int
    chunk: np.ndarray | None
    delta: ParityDelta | None
    #: (stripe, parity), the key buffers, staging and regions file it under
    key: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        stripe_id: int,
        parity_index: int,
        logical_nbytes: int,
        chunk: np.ndarray | None = None,
        delta: ParityDelta | None = None,
    ) -> None:
        if (chunk is None) == (delta is None):
            raise ValueError("a LogRecord holds exactly one of chunk or delta")
        if logical_nbytes <= 0:
            raise ValueError(f"logical_nbytes must be positive, got {logical_nbytes}")
        self.stripe_id = stripe_id
        self.parity_index = parity_index
        self.logical_nbytes = logical_nbytes
        self.chunk = chunk
        self.delta = delta
        self.key = (stripe_id, parity_index)

    @property
    def is_chunk(self) -> bool:
        return self.chunk is not None

    @classmethod
    def for_chunk(
        cls, stripe_id: int, parity_index: int, payload: np.ndarray, logical_nbytes: int
    ) -> "LogRecord":
        if type(payload) is not np.ndarray or payload.dtype is not U8:
            payload = np.asarray(payload, dtype=np.uint8)
        return cls(
            stripe_id=stripe_id,
            parity_index=parity_index,
            logical_nbytes=logical_nbytes,
            chunk=payload,
        )

    @classmethod
    def for_delta(cls, delta: ParityDelta, logical_nbytes: int) -> "LogRecord":
        return cls(
            stripe_id=delta.stripe_id,
            parity_index=delta.parity_index,
            logical_nbytes=logical_nbytes,
            delta=delta,
        )


def merge_records(records: list[LogRecord]) -> LogRecord:
    """Collapse records of one (stripe, parity) into a single record.

    If a base chunk is present, all deltas fold into it (the result is a
    chunk record); otherwise deltas merge into one delta record (Property 2).
    The merged logical size is the size of what would actually be written:
    the chunk size if a chunk is present, else the union extent of the deltas.
    The merge of one record is that record, returned as is.
    """
    if not records:
        raise ValueError("cannot merge an empty record list")
    first = records[0]
    if len(records) == 1:
        return first
    sid, pidx = first.stripe_id, first.parity_index
    chunks: list[LogRecord] = []
    deltas: list[ParityDelta] = []
    src_phys = src_logical = 0
    for rec in records:
        if rec.stripe_id != sid or rec.parity_index != pidx:
            raise ValueError(f"cannot merge records of {rec.key} into {(sid, pidx)}")
        if rec.chunk is not None:
            chunks.append(rec)
        else:
            deltas.append(rec.delta)
            src_phys += rec.delta.payload.size
        src_logical += rec.logical_nbytes
    if len(chunks) > 1:
        raise ValueError(f"multiple base chunks buffered for {(sid, pidx)}")
    if chunks:
        base = chunks[0]
        merged_chunk = base.chunk.copy()
        for d in deltas:
            apply_parity_delta(merged_chunk, d)
        return LogRecord.for_chunk(sid, pidx, merged_chunk, base.logical_nbytes)
    merged = merge_parity_deltas(deltas)
    # A merged delta covers its union extent once; its logical size scales
    # the source records' average logical density to that extent.
    per_byte = src_logical / src_phys if src_phys else 1.0
    logical = max(1, round(merged.length * per_byte))
    return LogRecord.for_delta(merged, logical)
