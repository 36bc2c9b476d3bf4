"""PL: append-only parity logging (§2.2, §5.1).

Flushing is as cheap as it gets -- the whole buffer goes to disk as one
sequential write.  The price is paid at repair time: the base parity chunk
and the deltas sit wherever the append stream put them.  Records of the same
(stripe, parity) that happened to flush in the *same batch* are contiguous
on disk and cost a single positioning operation; records from different
batches are scattered, so a repair pays one random read per flush-batch that
touched the stripe (plus one for the base chunk).
"""

from __future__ import annotations

from collections import defaultdict

from repro.logstore.base import LogScheme, ParityReadResult
from repro.logstore.records import LogRecord


class AppendOnlyPL(LogScheme):
    name = "pl"

    def __init__(self, disk, bytes_scale: float = 1.0, **kwargs):
        super().__init__(disk, bytes_scale=bytes_scale, **kwargs)
        #: (stripe, parity) -> [bytes appended per flush batch that touched it]
        self._delta_extents: dict[tuple[int, int], list[int]] = defaultdict(list)
        self._base_extent: dict[tuple[int, int], int] = {}
        self.appended_bytes = 0  # the append-only log never reclaims in place

    def flush(self, records: list[LogRecord], now: float) -> float:
        if not records:
            return 0.0
        total = sum(r.logical_nbytes for r in records)
        dur = self.disk.write(total, sequential=True, now=now)
        self.appended_bytes += total
        self.counters.add("log_appended_bytes", total)
        per_key_delta_bytes: dict[tuple[int, int], int] = defaultdict(int)
        for rec in records:
            if rec.is_chunk:
                self._base_extent[rec.key] = rec.logical_nbytes
            else:
                per_key_delta_bytes[rec.key] += rec.logical_nbytes
        for key, nbytes in per_key_delta_bytes.items():
            self._delta_extents[key].append(nbytes)
        self._apply_all(records)
        self._note_flush(records, total, dur)
        return dur

    def read_parity(
        self, stripe_id: int, parity_index: int, phys_size: int, now: float
    ) -> ParityReadResult:
        region = self.region(stripe_id, parity_index)
        key = (stripe_id, parity_index)
        duration = 0.0
        reads = 0
        logical = 0
        base_bytes = self._base_extent.get(key)
        if base_bytes is not None:
            duration += self.disk.read(base_bytes, sequential=False, now=now)
            reads += 1
            logical += base_bytes
        for nbytes in self._delta_extents.get(key, ()):
            # one seek per flush batch; its records are contiguous
            duration += self.disk.read(nbytes, sequential=False, now=now)
            reads += 1
            logical += nbytes
        return ParityReadResult(
            duration_s=duration,
            payload=region.materialise(phys_size),
            disk_reads=reads,
            logical_bytes_read=logical,
            has_base=region.base is not None,
        )

    def drop(self, stripe_id: int, parity_index: int) -> None:
        super().drop(stripe_id, parity_index)
        self._delta_extents.pop((stripe_id, parity_index), None)
        self._base_extent.pop((stripe_id, parity_index), None)

    @property
    def disk_logical_bytes(self) -> int:
        return self.appended_bytes
