"""Disk cost model with exact IO counting.

Experiments 5 and 6 of the paper are entirely about *how many* disk IOs each
log-flush scheme issues and whether repair reads are sequential or random, so
the model tracks:

* ``io_count``    -- number of IO submissions (what Figure 14(a) plots),
* ``seeks``       -- positioning operations (random IOs),
* read/write byte totals,

and charges time as ``seek (if random) + per-IO overhead + bytes/bandwidth``.
The backing store for log bytes themselves lives in :mod:`repro.logstore`;
this class only accounts cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.params import HardwareProfile
from repro.sim.resources import Resource


@dataclass
class DiskStats:
    """Tallies for one simulated disk."""

    reads: int = 0
    writes: int = 0
    seeks: int = 0
    read_bytes: int = 0
    write_bytes: int = 0

    @property
    def io_count(self) -> int:
        return self.reads + self.writes

    def snapshot(self) -> dict[str, int]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "seeks": self.seeks,
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
            "io_count": self.io_count,
        }


class DiskModel:
    """One log-node disk: cost model + IO statistics + busy-time resource."""

    def __init__(self, profile: HardwareProfile, name: str = "disk"):
        self.profile = profile
        self.stats = DiskStats()
        self.resource = Resource(name)
        self.stall_windows = 0
        self.stalled_s = 0.0

    # -- cost primitives ------------------------------------------------------

    def _io_time(self, nbytes: int, sequential: bool) -> float:
        p = self.profile
        t = p.disk_io_overhead_s + nbytes / p.disk_seq_bandwidth_Bps
        if not sequential:
            t += p.disk_seek_s
        return t

    def write(self, nbytes: int, *, sequential: bool, now: float = 0.0) -> float:
        """Submit one write IO; returns its service duration (seconds)."""
        self.stats.writes += 1
        self.stats.write_bytes += nbytes
        if not sequential:
            self.stats.seeks += 1
        dur = self._io_time(nbytes, sequential)
        self.resource.reserve(now, dur)
        return dur

    def read(self, nbytes: int, *, sequential: bool, now: float = 0.0) -> float:
        """Submit one read IO; returns its service duration (seconds)."""
        self.stats.reads += 1
        self.stats.read_bytes += nbytes
        if not sequential:
            self.stats.seeks += 1
        dur = self._io_time(nbytes, sequential)
        self.resource.reserve(now, dur)
        return dur

    def inject_stall(self, now: float, duration_s: float) -> None:
        """Fault injection: the device goes unresponsive for ``duration_s``.

        Models a controller pause / EBS throttling window: no IO is lost, but
        everything queued behind the window waits.  Flush backpressure then
        propagates the stall onto the write critical path exactly as a real
        backlog would (see :meth:`repro.cluster.node.LogNode.append`).
        """
        if duration_s < 0:
            raise ValueError(f"negative stall duration {duration_s}")
        self.stall_windows += 1
        self.stalled_s += duration_s
        self.resource.reserve(now, duration_s)

    # -- helpers ---------------------------------------------------------------

    def backlog_s(self, now: float) -> float:
        """Seconds of queued IO ahead of a request arriving at ``now``
        (read once per log append, so straight off the resource)."""
        wait = self.resource.free_at - now
        return wait if wait > 0.0 else 0.0
