"""Log records: the unit a log node buffers and flushes.

A record is either a *base parity chunk* (the r-1 non-XOR parities written at
stripe-creation time go to log nodes, §4.1) or a *parity delta* produced from
an update's data delta (Property 1, computed at the log node).  Records carry
their logical byte size so that disk accounting is independent of the
physical payload scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ec.delta import ParityDelta, apply_parity_delta, merge_parity_deltas


@dataclass
class LogRecord:
    """One buffered/persisted log entry for a (stripe, parity) pair."""

    stripe_id: int
    parity_index: int
    logical_nbytes: int
    chunk: np.ndarray | None = None
    delta: ParityDelta | None = None

    def __post_init__(self) -> None:
        if (self.chunk is None) == (self.delta is None):
            raise ValueError("a LogRecord holds exactly one of chunk or delta")
        if self.logical_nbytes <= 0:
            raise ValueError(f"logical_nbytes must be positive, got {self.logical_nbytes}")

    @property
    def is_chunk(self) -> bool:
        return self.chunk is not None

    @property
    def key(self) -> tuple[int, int]:
        return (self.stripe_id, self.parity_index)

    @classmethod
    def for_chunk(
        cls, stripe_id: int, parity_index: int, payload: np.ndarray, logical_nbytes: int
    ) -> "LogRecord":
        return cls(
            stripe_id=stripe_id,
            parity_index=parity_index,
            logical_nbytes=logical_nbytes,
            chunk=np.asarray(payload, dtype=np.uint8),
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
    """
    if not records:
        raise ValueError("cannot merge an empty record list")
    key = records[0].key
    for rec in records[1:]:
        if rec.key != key:
            raise ValueError(f"cannot merge records of {rec.key} into {key}")
    chunks = [r for r in records if r.is_chunk]
    deltas = [r.delta for r in records if not r.is_chunk]
    if len(chunks) > 1:
        raise ValueError(f"multiple base chunks buffered for {key}")
    if chunks:
        base = chunks[0]
        merged_chunk = base.chunk.copy()
        for d in deltas:
            apply_parity_delta(merged_chunk, d)
        return LogRecord.for_chunk(key[0], key[1], merged_chunk, base.logical_nbytes)
    merged = merge_parity_deltas(list(deltas))
    # A merged delta covers its union extent once; its logical size scales
    # the source records' average logical density to that extent.
    src_phys = sum(d.length for d in deltas)
    src_logical = sum(r.logical_nbytes for r in records)
    per_byte = src_logical / src_phys if src_phys else 1.0
    logical = max(1, round(merged.length * per_byte))
    return LogRecord.for_delta(merged, logical)

