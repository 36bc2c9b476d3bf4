"""YCSB-style workload generation (§6.2).

* :mod:`repro.workloads.zipf` -- the Zipfian and scrambled-Zipfian request
  choosers YCSB uses (constant 0.99), implemented from the Gray et al.
  "Quickly generating billion-record synthetic databases" recurrence.
* :mod:`repro.workloads.ycsb` -- load + run phases with configurable
  read/update/write mixes, deterministic per-seed.
"""

from repro.workloads.zipf import (
    LatestGenerator,
    ScrambledZipfian,
    ZipfianGenerator,
)
from repro.workloads.ycsb import Operation, Request, WorkloadSpec, generate_requests, load_keys
from repro.workloads.presets import PRESETS, generate_preset_requests, preset_spec
from repro.workloads import trace

__all__ = [
    "LatestGenerator",
    "Operation",
    "PRESETS",
    "Request",
    "ScrambledZipfian",
    "WorkloadSpec",
    "ZipfianGenerator",
    "generate_preset_requests",
    "generate_requests",
    "load_keys",
    "preset_spec",
    "trace",
]
