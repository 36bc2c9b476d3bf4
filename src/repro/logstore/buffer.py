"""Log-node DRAM buffer (buffer logging, §3.3.2 / §4.3).

Updates complete as soon as their parity delta sits in this buffer; the
buffer flushes to disk asynchronously through the node's log scheme.  With
``merge=True`` the buffer performs the paper's *merge-based buffer logging*:
a record arriving for a (stripe, parity) pair that already has a buffered
record is merged into it immediately, shrinking both buffer occupancy and the
flush workload.
"""

from __future__ import annotations

from repro.logstore.records import LogRecord, merge_records


class LogBuffer:
    """FIFO-ordered buffer of :class:`LogRecord` with byte accounting."""

    def __init__(
        self,
        capacity_bytes: int,
        flush_threshold_bytes: int,
        merge: bool = True,
    ):
        if flush_threshold_bytes > capacity_bytes:
            raise ValueError("flush threshold cannot exceed capacity")
        self.capacity_bytes = int(capacity_bytes)
        self.flush_threshold_bytes = int(flush_threshold_bytes)
        self.merge = merge
        # dict insertion order IS the arrival order (merging a record updates
        # the value in place without reordering, matching FIFO semantics),
        # which makes drop() O(1) -- no side list to linearly scan.
        self._records: dict[tuple[int, int], LogRecord] = {}
        self._unmerged: list[LogRecord] = []  # used when merge=False
        self.logical_bytes = 0
        self.merges = 0
        self.appends = 0

    def __len__(self) -> int:
        return len(self._unmerged) if not self.merge else len(self._records)

    def add(self, record: LogRecord) -> bool:
        """Buffer one record, merging per (stripe, parity) when enabled.
        Returns whether the buffer has reached its flush threshold (what
        :meth:`should_flush` would say next)."""
        self.appends += 1
        if not self.merge:
            self._unmerged.append(record)
            self.logical_bytes += record.logical_nbytes
        else:
            key = record.key
            existing = self._records.get(key)
            if existing is None:
                self._records[key] = record
                self.logical_bytes += record.logical_nbytes
            else:
                merged = merge_records([existing, record])
                self.logical_bytes += merged.logical_nbytes - existing.logical_nbytes
                self._records[key] = merged
                self.merges += 1
        return self.logical_bytes >= self.flush_threshold_bytes

    def should_flush(self) -> bool:
        return self.logical_bytes >= self.flush_threshold_bytes

    def peek(self) -> list[LogRecord]:
        """Buffered records in arrival order, without draining."""
        if not self.merge:
            return list(self._unmerged)
        return list(self._records.values())

    def records_for(self, stripe_id: int, parity_index: int) -> list[LogRecord]:
        """Buffered records for one (stripe, parity) pair (for repairs)."""
        if not self.merge:
            return [
                r
                for r in self._unmerged
                if r.stripe_id == stripe_id and r.parity_index == parity_index
            ]
        rec = self._records.get((stripe_id, parity_index))
        return [rec] if rec is not None else []

    def drop(self, stripe_id: int, parity_index: int) -> int:
        """Discard buffered records for one (stripe, parity) (stripe GC'd)."""
        dropped = 0
        if self.merge:
            rec = self._records.pop((stripe_id, parity_index), None)
            if rec is not None:
                self.logical_bytes -= rec.logical_nbytes
                dropped = 1
        else:
            keep = []
            for rec in self._unmerged:
                if rec.stripe_id == stripe_id and rec.parity_index == parity_index:
                    self.logical_bytes -= rec.logical_nbytes
                    dropped += 1
                else:
                    keep.append(rec)
            self._unmerged = keep
        return dropped

    def drain(self) -> list[LogRecord]:
        """Remove and return everything buffered, in arrival order."""
        out = self.peek()
        self._records.clear()
        self._unmerged.clear()
        self.logical_bytes = 0
        return out
