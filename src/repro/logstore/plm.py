"""PLM: parity logging with (lazy) merging -- the paper's scheme (§5.2).

Flushes append the whole buffer to a continuous *staging* extent with one
sequential write, like PL.  When the staging extent grows past a threshold,
the node reads it back with one sequential read, merges records per
(stripe, parity) *across all staged flushes* (a much wider merge window than
PLR-m's single buffer), and writes each merged record into its reserved
region.  Repairs read the reserved region sequentially plus any records still
sitting in staging.

Staging is keyed by (stripe, parity): each pair's staged records, in arrival
order, under a key that entered at the pair's first arrival.  A lazy merge
writes the groups as they stand, and a stripe drop or a repair read of one
pair touches that pair's records only.
"""

from __future__ import annotations

from repro.logstore.base import LogScheme, ParityReadResult
from repro.logstore.records import LogRecord
from repro.sim.disk import DiskModel


class LazyMergePLM(LogScheme):
    name = "plm"

    def __init__(
        self,
        disk: DiskModel,
        bytes_scale: float = 1.0,
        **kwargs,
    ):
        super().__init__(disk, bytes_scale=bytes_scale, **kwargs)
        self.staging_threshold_bytes = disk.profile.log_staging_threshold_bytes
        #: (stripe, parity) -> its staged records, keys in first-arrival order
        self._staging: dict[tuple[int, int], list[LogRecord]] = {}
        self._staged_records = 0
        self._staging_bytes = 0
        self.lazy_merges = 0

    @property
    def staging_bytes(self) -> int:
        return self._staging_bytes

    def flush(self, records: list[LogRecord], now: float) -> float:
        if not records:
            return 0.0
        staging = self._staging
        total = 0
        for rec in records:
            total += rec.logical_nbytes
            if rec.key in staging:
                staging[rec.key].append(rec)
            else:
                staging[rec.key] = [rec]
        dur = self.disk.write(total, sequential=True, now=now)
        self._staged_records += len(records)
        self._staging_bytes += total
        self._note_flush(records, total, dur)
        if self._staging_bytes >= self.staging_threshold_bytes:
            dur += self._lazy_merge(now)
        return dur

    def _lazy_merge(self, now: float) -> float:
        """Read staging back, merge per (stripe, parity), write reserved regions."""
        if not self._staging:
            return 0.0
        self.lazy_merges += 1
        staged_records = self._staged_records
        staged_bytes = self._staging_bytes
        dur = self.disk.read(staged_bytes, sequential=True, now=now)
        dur, merged_writes = self._write_merged(self._staging, now, dur)
        self._staging = {}
        self._staged_records = 0
        self._staging_bytes = 0
        self.counters.add("log_lazy_merges")
        self.counters.add("log_lazy_merge_bytes", staged_bytes)
        self.counters.add("log_random_writes", merged_writes)
        self.journal.emit(
            "lazy_merge",
            node=self.node_id,
            scheme=self.name,
            staged_records=staged_records,
            staged_bytes=staged_bytes,
            merged_writes=merged_writes,
            duration_s=dur,
        )
        return dur

    def settle(self, now: float) -> float:
        return self._lazy_merge(now)

    @property
    def disk_logical_bytes(self) -> int:
        return super().disk_logical_bytes + self._staging_bytes

    def drop(self, stripe_id: int, parity_index: int) -> None:
        super().drop(stripe_id, parity_index)
        group = self._staging.pop((stripe_id, parity_index), None)
        if group is not None:
            self._staged_records -= len(group)
            self._staging_bytes -= sum(r.logical_nbytes for r in group)

    def read_parity(
        self, stripe_id: int, parity_index: int, phys_size: int, now: float
    ) -> ParityReadResult:
        result = super().read_parity(stripe_id, parity_index, phys_size, now)
        # Records still in staging must be fetched too (random reads at known
        # staging offsets), and folded on top of the reserved-region state.
        staged = self._staging.get((stripe_id, parity_index), ())
        for rec in staged:
            result.duration_s += self.disk.read(rec.logical_nbytes, sequential=False, now=now)
            result.disk_reads += 1
            result.logical_bytes_read += rec.logical_nbytes
        result.overlay(staged)
        return result
