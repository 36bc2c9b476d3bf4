"""Log-scheme interface and shared on-disk state.

A scheme owns the *persisted* state of one log node: for every
(stripe, parity) pair, the base parity chunk (if flushed yet) and the parity
deltas that have reached disk.  Schemes differ in how flushes map to disk IOs
and in what a repair read costs; the reconstructed bytes are identical across
schemes (tests assert this).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.ec.delta import ParityDelta, apply_parity_delta
from repro.logstore.records import LogRecord, merge_records
from repro.obs.events import NULL_JOURNAL, EventJournal
from repro.sim.disk import DiskModel
from repro.sim.resources import Counters


@dataclass
class ReservedRegion:
    """Persisted records of one (stripe, parity) pair."""

    base: np.ndarray | None = None
    base_logical: int = 0
    deltas: list[ParityDelta] = field(default_factory=list)
    delta_logical: list[int] = field(default_factory=list)

    @property
    def logical_bytes(self) -> int:
        return self.base_logical + sum(self.delta_logical)

    def apply(self, record: LogRecord) -> None:
        """Fold one flushed record into the persisted state."""
        if record.chunk is not None:
            self.base = record.chunk.copy()
            self.base_logical = record.logical_nbytes
        else:
            self.deltas.append(record.delta)
            self.delta_logical.append(record.logical_nbytes)

    def materialise(self, phys_size: int) -> np.ndarray:
        """Up-to-date parity bytes from persisted state only."""
        chunk = (
            self.base.copy() if self.base is not None else np.zeros(phys_size, dtype=np.uint8)
        )
        for d in self.deltas:
            apply_parity_delta(chunk, d)
        return chunk


@dataclass
class ParityReadResult:
    """Outcome of reading one up-to-date parity chunk from disk."""

    duration_s: float
    payload: np.ndarray
    disk_reads: int
    logical_bytes_read: int
    has_base: bool

    def overlay(self, records: list[LogRecord]) -> None:
        """Fold not-yet-merged records (arrival order) on top of the bytes
        read: a base chunk supersedes what is below it, a delta XORs in."""
        for rec in records:
            if rec.chunk is not None:
                self.payload, self.has_base = rec.chunk.copy(), True
            else:
                apply_parity_delta(self.payload, rec.delta)


class LogScheme(ABC):
    """Flush/repair policy of a log node's disk."""

    name: str = "abstract"

    def __init__(
        self,
        disk: DiskModel,
        bytes_scale: float = 1.0,
        journal: EventJournal | None = None,
        counters: Counters | None = None,
        node_id: str = "",
    ):
        #: cost model + IO statistics for this node's disk
        self.disk = disk
        #: logical bytes per physical byte (payload-scale compensation)
        self.bytes_scale = float(bytes_scale)
        #: flight recorder + shared counter bag; stand-alone construction
        #: (unit tests) gets no-op/private instances so the flush paths never
        #: need a None check
        self.journal = journal if journal is not None else NULL_JOURNAL
        self.counters = counters if counters is not None else Counters()
        self.node_id = node_id
        self.regions: dict[tuple[int, int], ReservedRegion] = {}
        self.flushes = 0

    def region(self, stripe_id: int, parity_index: int) -> ReservedRegion:
        key = (stripe_id, parity_index)
        regions = self.regions
        if key not in regions:
            regions[key] = ReservedRegion()
        return regions[key]

    @abstractmethod
    def flush(self, records: list[LogRecord], now: float) -> float:
        """Persist drained buffer records; returns the IO service duration."""

    def read_parity(
        self, stripe_id: int, parity_index: int, phys_size: int, now: float
    ) -> ParityReadResult:
        """Read the up-to-date persisted parity chunk (repair path).

        The reserved-space read PLR and PLR-m share: base chunk and deltas
        sit in one region.  PL overrides it with its scattered-extent cost;
        PLM adds what is still in staging on top."""
        region = self.region(stripe_id, parity_index)
        duration, reads, logical = self._read_region(region, now)
        return ParityReadResult(
            duration_s=duration,
            payload=region.materialise(phys_size),
            disk_reads=reads,
            logical_bytes_read=logical,
            has_base=region.base is not None,
        )

    def settle(self, now: float) -> float:
        """Finish any deferred background work (default: nothing)."""
        return 0.0

    def drop(self, stripe_id: int, parity_index: int) -> None:
        """Release a (stripe, parity)'s persisted state (stripe GC'd)."""
        self.regions.pop((stripe_id, parity_index), None)

    @property
    def disk_logical_bytes(self) -> int:
        """Live logical bytes this scheme occupies on disk.

        Reserved-space layouts hold exactly their regions' bytes; PL's
        append-only log and PLM's staging extent override this to account
        for their extra on-disk footprint (the "stored chunks" dimension of
        Figure 1)."""
        return sum(r.logical_bytes for r in self.regions.values())

    # -- shared helpers -------------------------------------------------------

    def _note_flush(
        self, records: list[LogRecord], nbytes: int, duration_s: float
    ) -> None:
        """Account one completed flush batch of ``nbytes`` logical bytes:
        counters + a log_flush event.

        Counters are suffixed with the scheme name so per-scheme disk-log
        behaviour survives into profile snapshots (PL's one-sequential-write
        flushes vs PLR's per-record random writes are different columns, not
        one blurred total)."""
        self.flushes += 1
        self.counters.add(f"log_flushes_{self.name}")
        self.counters.add("log_flush_records", len(records))
        self.counters.add("log_flush_bytes", nbytes)
        self.journal.emit(
            "log_flush",
            node=self.node_id,
            scheme=self.name,
            records=len(records),
            nbytes=nbytes,
            duration_s=duration_s,
        )

    def _apply_all(self, records: list[LogRecord]) -> None:
        for rec in records:
            self.region(rec.stripe_id, rec.parity_index).apply(rec)

    def _write_merged(
        self,
        groups: dict[tuple[int, int], list[LogRecord]],
        now: float,
        duration: float = 0.0,
    ) -> tuple[float, int]:
        """Merge each (stripe, parity)'s group of records (Property 2) and
        write it into its reserved region with one random write, in the
        groups' order (first arrival).  Returns (``duration`` plus the IO
        seconds, regions written)."""
        for key, group in groups.items():
            merged = merge_records(group)
            duration += self.disk.write(merged.logical_nbytes, sequential=False, now=now)
            self.region(*key).apply(merged)
        return duration, len(groups)

    def _read_region(self, region: ReservedRegion, now: float) -> tuple[float, int, int]:
        """Charge the disk for reading one reserved region: base chunk and
        deltas are contiguous, so one random read.  Returns (duration, disk
        reads, logical bytes)."""
        logical = max(1, region.logical_bytes)
        duration = self.disk.read(logical, sequential=False, now=now)
        self.counters.add("log_region_reads")
        return duration, 1, logical
