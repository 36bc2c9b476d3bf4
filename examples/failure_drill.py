#!/usr/bin/env python3
"""Failure drill: walk LogECMem through the paper's repair paths, driven by
the chaos harness (``repro.chaos``) with a scripted fault schedule and
repaired by the control plane (``repro.heal``).

1. Transient blip -> degraded reads from DRAM (XOR fast path), healed retry.
2. Permanent DRAM crash -> degraded reads, then whole-node repair (§5.3).
3. Log-node crash -> buffer lost, parities rebuilt from DRAM state (§3.3.2).
4. The invariant sweep: everything acked is still bit-exact.

Run:  python examples/failure_drill.py
"""

import numpy as np

from repro.analysis import format_table
from repro.bench.runner import load_store
from repro.chaos import FaultEvent, FaultKind, FaultSchedule, run_chaos
from repro.core import LogECMem, StoreConfig
from repro.core.repair import repair_node
from repro.heal import ControlPlane
from repro.workloads import WorkloadSpec

config = StoreConfig(k=6, r=3, value_size=4096, scheme="plm")
spec = WorkloadSpec.read_update("80:20", n_objects=600, n_requests=600, seed=3)

# ------------------------------------------------- scripted chaos run
store = LogECMem(config)
schedule = FaultSchedule([
    FaultEvent(0.005, FaultKind.BLIP, "dram2", duration_s=0.002),
    FaultEvent(0.015, FaultKind.CRASH, "dram0"),
    FaultEvent(0.030, FaultKind.CRASH, "log0"),
    FaultEvent(0.045, FaultKind.SLOW, "dram4", duration_s=0.01, magnitude=8.0),
])
report = run_chaos(store, spec, schedule=schedule, control_plane=ControlPlane())
print("scripted drill (blip + DRAM crash + log crash + straggler):\n")
print(report.summary())
print("\ntimeline:")
for t, text in report.timeline:
    print(f"  {t * 1e3:8.3f} ms  {text}")
assert report.violations == 0
assert report.degraded_reads > 0

# --------------------------------------- the same drill, Poisson-generated
store = LogECMem(StoreConfig(k=6, r=3, value_size=4096, scheme="plm"))
report2 = run_chaos(store, spec, expected_faults=5.0, control_plane=ControlPlane())
print(f"\nseeded Poisson drill: {sum(report2.faults_fired.values())} faults "
      f"{report2.faults_fired}, {report2.degraded_reads} degraded reads, "
      f"{report2.violations} violations, fingerprint {report2.fingerprint()}")
assert report2.violations == 0

# ------------------------------------------------ repair cost comparison
print("\nwhole-node repair (log-assist on/off):")
rows = []
for assist in (False, True):
    drill = LogECMem(StoreConfig(k=6, r=3, value_size=4096, scheme="plm"))
    load_store(drill, spec)
    key = "user0000000000000007"
    drill.cluster.kill("dram3")
    if drill.object_index.get(key) is not None:
        res = drill.read(key)  # reads keep working while the node is down
        assert np.array_equal(res.value, drill.expected_value(key))
    result = repair_node(drill, "dram3", log_assist=assist)
    rows.append([
        "log-assist" if assist else "DRAM-only",
        f"{result.repair_time_s * 1e3:.1f}",
        f"{result.throughput_GiB_per_min:.2f}",
        result.chunks_repaired,
        result.log_parity_fetches,
    ])
print(format_table(
    ["mode", "repair ms", "GiB/min", "chunks", "parities from logs"], rows
))
