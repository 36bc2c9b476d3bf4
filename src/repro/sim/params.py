"""Calibrated hardware constants for the simulated EC2-like testbed.

All knobs live in one dataclass so that the mapping "paper testbed -> model"
is auditable in a single place.  Defaults approximate the paper's setup:
m5d.2xlarge instances (up-to-10 Gb/s NICs), DDR4 DRAM (~17 GB/s), a 1 TiB EBS
volume as the log disk, and ISA-L-class Reed-Solomon throughput.

Two behavioural constants matter more than the bandwidths and are taken from
how the prototype actually behaves (libmemcached proxy):

* reads issued by the proxy are **sequential** synchronous GETs
  (one round trip each), which is why eliminating parity reads pays off;
* writes/acks fan out **in parallel** and cost one round trip plus the
  serialized NIC transfer of all outgoing payloads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class HardwareProfile:
    """One simulated machine/network profile; times in seconds, sizes in bytes."""

    #: one-way client<->proxy / proxy<->node propagation + stack latency
    rtt_s: float = 50e-6
    #: NIC bandwidth (m5d.2xlarge: "up to 10 Gb/s" burst, ~4 Gb/s sustained)
    net_bandwidth_Bps: float = 500e6
    #: per-RPC software overhead at the proxy (serialize + syscall + memcached op)
    rpc_overhead_s: float = 30e-6
    #: per-op service time at a DRAM node (hash lookup, slab copy)
    node_service_s: float = 10e-6
    #: DRAM copy bandwidth (DDR4)
    mem_bandwidth_Bps: float = 17e9
    #: RS encode/decode throughput (ISA-L class)
    encode_bandwidth_Bps: float = 5e9
    #: disk sequential bandwidth (EBS gp2-ish)
    disk_seq_bandwidth_Bps: float = 250e6
    #: random-IO positioning penalty per non-contiguous disk access (EBS
    #: effective random-read latency at moderate queue depth)
    disk_seek_s: float = 150e-6
    #: fixed submission overhead per disk IO, even sequential
    disk_io_overhead_s: float = 50e-6
    #: log-node DRAM buffer capacity for parity deltas
    log_buffer_bytes: int = 1 << 20
    #: flush when the buffer holds at least this many bytes
    log_flush_threshold_bytes: int = 256 << 10
    #: PLM's continuous staging extent: lazy-merge once it reaches this size
    log_staging_threshold_bytes: int = 1 << 20
    #: closed-loop client concurrency used for throughput estimates
    client_concurrency: int = 32
    #: max seconds of queued disk IO a log node tolerates before writes stall
    max_disk_backlog_s: float = 0.25
    #: buffer-occupancy fraction past which log nodes signal backpressure:
    #: the concurrent engine parks client writes there until a flush drains
    #: the buffer back below the mark
    log_high_water_fraction: float = 0.9

    def transfer_s(self, nbytes: int) -> float:
        """Pure wire time for ``nbytes`` on the NIC."""
        return nbytes / self.net_bandwidth_Bps

    def encode_s(self, nbytes: int) -> float:
        """CPU time to run ``nbytes`` through the RS kernel."""
        return nbytes / self.encode_bandwidth_Bps

    def memcpy_s(self, nbytes: int) -> float:
        """DRAM copy time."""
        return nbytes / self.mem_bandwidth_Bps


def default_profile() -> HardwareProfile:
    """Fresh default profile (avoid sharing mutable defaults across runs)."""
    return HardwareProfile()


#: the defaults *are* the paper's testbed (EBS-class disks behind the log nodes)
ec2_profile = default_profile


def ssd_log_profile() -> HardwareProfile:
    """§9 future work: SSD-backed log nodes (NVMe-class).

    Random-access penalty drops ~6x and bandwidth doubles vs EBS, which
    compresses the PL-vs-PLR repair gap and shrinks buffer-logging stalls."""
    return HardwareProfile(
        disk_seq_bandwidth_Bps=500e6,
        disk_seek_s=80e-6,
        disk_io_overhead_s=20e-6,
    )


def nvram_log_profile() -> HardwareProfile:
    """§9 future work: NVRAM-backed log nodes (byte-addressable persistence).

    Near-DRAM bandwidth and no positioning cost: the log-layout schemes
    converge, and parity logging costs almost nothing on the repair path."""
    return HardwareProfile(
        disk_seq_bandwidth_Bps=2e9,
        disk_seek_s=1e-6,
        disk_io_overhead_s=2e-6,
    )
