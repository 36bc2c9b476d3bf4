"""PLR: parity logging with reserved space (CodFS, §5.1).

Each parity chunk owns a contiguous reserved extent on disk; its deltas are
appended right next to it.  A repair is therefore one sequential read of the
whole region -- but every flushed record becomes its own random write into
its stripe's region, which is exactly the heavy update-path IO cost the
paper's Figure 14(a) shows.
"""

from __future__ import annotations

from repro.logstore.base import LogScheme
from repro.logstore.records import LogRecord


class ReservedSpacePLR(LogScheme):
    name = "plr"

    def flush(self, records: list[LogRecord], now: float) -> float:
        if not records:
            return 0.0
        dur = 0.0
        total = 0
        for rec in records:
            # one random write per record, into that stripe's reserved extent
            dur += self.disk.write(rec.logical_nbytes, sequential=False, now=now)
            total += rec.logical_nbytes
        self.counters.add("log_random_writes", len(records))
        self._apply_all(records)
        self._note_flush(records, total, dur)
        return dur
