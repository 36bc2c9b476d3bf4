"""PLR-m: reserved space plus in-memory merging right before flushing (§5.2).

Within one flush batch, records targeting the same (stripe, parity) pair are
merged (Property 2) so only one random write per pair is issued.  Merging is
limited to what happens to be co-resident in the buffer -- PLM relaxes that
limit with a disk staging extent.
"""

from __future__ import annotations

from repro.logstore.base import LogScheme
from repro.logstore.records import LogRecord


class MergingPLRm(LogScheme):
    name = "plr-m"

    def flush(self, records: list[LogRecord], now: float) -> float:
        if not records:
            return 0.0
        groups: dict[tuple[int, int], list[LogRecord]] = {}
        total = 0
        for rec in records:
            groups.setdefault(rec.key, []).append(rec)
            total += rec.logical_nbytes
        dur, writes = self._write_merged(groups, now)
        self.counters.add("log_random_writes", writes)
        self._note_flush(records, total, dur)
        return dur
