"""Storage nodes: DRAM nodes (memcached instances) and disk-backed log nodes.

A :class:`DRAMNode` is a memcached stand-in holding data chunks and XOR
parity chunks as items in a :class:`~repro.kvstore.memtable.MemTable`.

A :class:`LogNode` implements buffer logging (§3.3.2): incoming records land
in a DRAM buffer and are acknowledged immediately; the buffer flushes to disk
through a pluggable log scheme (PL/PLR/PLR-m/PLM) asynchronously, unless the
disk has fallen too far behind, in which case ``append`` stalls the caller.
"""

from __future__ import annotations

from repro.kvstore.memtable import MemTable
from repro.logstore import make_scheme
from repro.logstore.base import ParityReadResult
from repro.logstore.buffer import LogBuffer
from repro.logstore.records import LogRecord
from repro.obs.events import NULL_JOURNAL, EventJournal
from repro.sim.disk import DiskModel
from repro.sim.params import HardwareProfile
from repro.sim.resources import Counters


class Node:
    """Base node: identity, alive/failed state and downtime accounting.

    ``fail``/``restore`` take the simulated time of the transition so that
    per-node downtime (and cluster availability) can be reported; both are
    idempotent and return whether the state actually changed, so callers can
    distinguish a real transition from a repeated fault on an already-down
    node (the chaos injector relies on this).
    """

    kind = "node"

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.alive = True
        self.failed_at: float | None = None
        self.downtime_s = 0.0
        self.fail_count = 0
        self.restore_count = 0

    def fail(self, now: float = 0.0) -> bool:
        if not self.alive:
            return False
        self.alive = False
        self.failed_at = now
        self.fail_count += 1
        return True

    def restore(self, now: float = 0.0) -> bool:
        if self.alive:
            return False
        if self.failed_at is not None:
            self.downtime_s += max(0.0, now - self.failed_at)
        self.alive = True
        self.failed_at = None
        self.restore_count += 1
        return True

    def downtime_until(self, now: float) -> float:
        """Accumulated downtime including the currently-open outage, if any."""
        total = self.downtime_s
        if not self.alive and self.failed_at is not None:
            total += max(0.0, now - self.failed_at)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "up" if self.alive else "DOWN"
        return f"{type(self).__name__}({self.node_id!r}, {state})"


class DRAMNode(Node):
    """One memcached instance: data chunks + XOR parity chunks in DRAM."""

    kind = "dram"

    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.table = MemTable(name=node_id)

    @property
    def logical_bytes(self) -> int:
        return self.table.logical_bytes


class LogNode(Node):
    """One log node: DRAM delta buffer + disk with a log-layout scheme."""

    kind = "log"

    def __init__(
        self,
        node_id: str,
        profile: HardwareProfile,
        scheme: str = "plm",
        bytes_scale: float = 1.0,
        merge_buffer: bool = True,
        journal: EventJournal | None = None,
        counters: Counters | None = None,
    ):
        super().__init__(node_id)
        self.profile = profile
        self.journal = journal if journal is not None else NULL_JOURNAL
        self.counters = counters if counters is not None else Counters()
        self.disk = DiskModel(profile, name=f"{node_id}:disk")
        self.scheme = make_scheme(
            scheme,
            self.disk,
            bytes_scale=bytes_scale,
            journal=self.journal,
            counters=self.counters,
            node_id=node_id,
        )
        self.buffer = LogBuffer(
            capacity_bytes=profile.log_buffer_bytes,
            flush_threshold_bytes=profile.log_flush_threshold_bytes,
            merge=merge_buffer,
        )
        self.sync_flush_stalls = 0
        #: set when parity deltas could not be delivered (node down or link
        #: partitioned during an update): the persisted parity is stale and
        #: must be rebuilt via recover_log_node before it is read again
        self.needs_recovery = False

    # -- write path -----------------------------------------------------------

    def append(self, record: LogRecord, now: float) -> float:
        """Buffer one record; returns critical-path seconds.

        Normally 0: buffer logging acknowledges as soon as the record is in
        DRAM.  If the disk has fallen more than ``max_disk_backlog_s`` behind
        its flush queue, the write stalls until the backlog drains below the
        bound (the crash-consistency window must stay bounded)."""
        stall = 0.0
        backlog = self.disk.backlog_s(now)
        if backlog > self.profile.max_disk_backlog_s:
            self.sync_flush_stalls += 1
            self.counters.add("log_sync_stalls")
            stall = backlog - self.profile.max_disk_backlog_s
        merges_before = self.buffer.merges
        flush_due = self.buffer.add(record)
        self.counters.add("log_buffer_appends")
        if self.buffer.merges > merges_before:
            self.counters.add("log_buffer_merges")
            self.journal.emit(
                "buffer_merge",
                node=self.node_id,
                stripe=record.stripe_id,
                parity=record.parity_index,
            )
        if flush_due:
            self._flush(now)  # asynchronous: occupies the disk, not the caller
        return stall

    def _flush(self, now: float) -> float:
        records = self.buffer.drain()
        if not records:
            return 0.0
        return self.scheme.flush(records, now)

    def settle(self, now: float) -> float:
        """Flush everything and finish lazy merges (end of run / pre-repair)."""
        dur = self._flush(now)
        dur += self.scheme.settle(now)
        return dur

    def switch_scheme(self, name: str, now: float) -> float:
        """Migrate the on-disk log to a different layout scheme.

        The node settles first (buffer drained, lazy merges finished) so all
        live state sits in the scheme's reserved regions; those regions are
        then read back sequentially and replayed through the new scheme's
        flush path, paying the new layout's write pattern.  The persisted
        parity bytes are identical before and after (the heal plane's log-replay
        check holds across a switch).  Returns the migration's IO seconds;
        a no-op (same scheme) costs nothing.
        """
        old = self.scheme
        if name == old.name:
            return 0.0
        duration = self.settle(now)
        migrated = max(1, old.disk_logical_bytes)
        duration += self.disk.read(migrated, sequential=True, now=now + duration)
        records: list[LogRecord] = []
        for (sid, j), region in sorted(old.regions.items()):
            if region.base is not None:
                records.append(
                    LogRecord.for_chunk(sid, j, region.base, region.base_logical)
                )
            for delta, logical in zip(region.deltas, region.delta_logical):
                records.append(LogRecord.for_delta(delta, logical))
        new_scheme = make_scheme(
            name,
            self.disk,
            bytes_scale=old.bytes_scale,
            journal=self.journal,
            counters=self.counters,
            node_id=self.node_id,
        )
        if records:
            duration += new_scheme.flush(records, now + duration)
            duration += new_scheme.settle(now + duration)
        self.scheme = new_scheme
        self.counters.add("log_scheme_switches")
        self.journal.emit(
            "scheme_switch",
            node=self.node_id,
            old=old.name,
            new=new_scheme.name,
            regions=len(old.regions),
            nbytes=migrated,
            duration_s=duration,
        )
        return duration

    def drop_stripe_parity(self, stripe_id: int, parity_index: int) -> None:
        """Release everything held for one (stripe, parity): buffered records
        and the persisted reserved region (used by stripe GC)."""
        dropped = self.buffer.drop(stripe_id, parity_index)
        if dropped:
            self.counters.add("log_buffer_drops", dropped)
            self.journal.emit(
                "buffer_drop",
                node=self.node_id,
                stripe=stripe_id,
                parity=parity_index,
                records=dropped,
            )
        self.scheme.drop(stripe_id, parity_index)

    # -- repair path ----------------------------------------------------------

    def read_uptodate_parity(
        self, stripe_id: int, parity_index: int, phys_size: int, now: float
    ) -> ParityReadResult:
        """Up-to-date parity = persisted state + records still in the buffer."""
        result = self.scheme.read_parity(stripe_id, parity_index, phys_size, now)
        result.overlay(self.buffer.records_for(stripe_id, parity_index))
        if not result.has_base:
            raise KeyError(
                f"log node {self.node_id}: no base parity for stripe {stripe_id} "
                f"parity {parity_index}"
            )
        return result
