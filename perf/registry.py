"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

Every later performance or simplicity issue quotes its claim and its
no-regression set from here.  ``BENCHMARK.json`` at the repo root is
``benchmark_doc()`` serialised (``python3 perf/registry.py`` prints it and
``perf/tests`` asserts the two agree); what the driver's schema has no room
for -- the layer each slice belongs to, the end-to-end metric it should
move, the workload sizes -- lives only here and in ``perf/README.md``.
"""

from __future__ import annotations

import json

#: measured seconds per run the driver asks for (``--seconds``)
RUN_SECONDS = 10

#: the packages under ``src/repro/`` that carry run-time work, plus ``bench``
#: (the replay loops of ``repro.bench.runner`` and this benchmark's own
#: checked-store wrapper, which are harness rather than system)
LAYERS = (
    "ec",
    "kvstore",
    "cluster",
    "logstore",
    "sim",
    "obs",
    "core",
    "baselines",
    "engine",
    "chaos",
    "heal",
    "workloads",
)

#: same-seed comparisons (``perf/compare.py``) hold simulated-clock metrics
#: to float re-association only; the per-seed bounds below are what the
#: driver applies across *different* seeds
SAME_SEED_SIM_BOUND = 1e-6

# Simulated-clock units are spelled ``sim_us`` / ``sim_ms`` so nobody reads
# them as host time: they repeat exactly for a seed and move only when a
# change bends the paper's cost model.
END_TO_END = [
    {"name": "wall_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.20,
     "doc": "fixed operation count / best timed wall over the repeats (headline)"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "doc": "host seconds outside the timed section per repeat (store build, "
            "request generation, untimed load / build_jobs), best over the repeats"},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.10,
     "doc": "ru_maxrss of the benchmark process"},
    {"name": "sim_read_us_mean", "unit": "sim_us", "better": "lower", "bound": 0.02,
     "doc": "LogECMem mean simulated read latency"},
    {"name": "sim_write_us_mean", "unit": "sim_us", "better": "lower", "bound": 0.02,
     "doc": "LogECMem mean simulated write latency (load phase + inserts)"},
    {"name": "sim_update_us_mean", "unit": "sim_us", "better": "lower", "bound": 0.03,
     "doc": "LogECMem mean simulated update latency"},
    {"name": "sim_degraded_us_mean", "unit": "sim_us", "better": "lower", "bound": 0.05,
     "doc": "LogECMem mean simulated degraded-read latency"},
    {"name": "sim_p99_us", "unit": "sim_us", "better": "lower", "bound": 0.05,
     "doc": "exact p99 of simulated request latency (engine: C=16, clean run)"},
    {"name": "sim_throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.12,
     "doc": "WorkloadResult.throughput_ops_s (engine: peak of the load curve)"},
    {"name": "sim_disk_ios_per_kupdate", "unit": "count", "better": "lower", "bound": 0.20,
     "doc": "log-node disk IOs per 1000 updates (Exp 5)"},
    {"name": "sim_mem_bytes_per_user_byte", "unit": "ratio", "better": "lower", "bound": 0.02,
     "doc": "memory_logical_bytes / (objects x value size), inserts included (Exp 3)"},
    {"name": "sim_repair_gib_per_min", "unit": "GiB/min", "better": "higher", "bound": 0.05,
     "doc": "repair_node(log_assist=True) throughput (Exp 7)"},
    {"name": "sim_mttr_ms", "unit": "sim_ms", "better": "lower", "bound": 0.15,
     "doc": "mean fault-window duration from the journal (analysis.timeline.mttr_s)"},
]

#: sizes at ``--scale 1``; ``loop`` is the same for all four: closed, one
#: client, one process, one thread
WORKLOADS = {
    "update_heavy": {
        "why": "LogECMem 50:50 Zipfian read:update, the paper's headline path: "
               "delta, LogNode.append, LogBuffer, PLM flush and lazy merge do most of the work",
        "code": (6, 3), "value_size": 4096, "objects": 3000, "requests": 24000,
        "drill_ops": 60,
    },
    "basic_io_five_stores": {
        "why": "Exp 1 shape on all five stores at 90:5:5 read:update:write; the log path "
               "is nearly idle, so shared striped/kvstore/network/obs code and the baselines show here",
        "code": (6, 3), "value_size": 4096, "objects": 1000, "requests": 8000,
        "degraded": 100, "drill_ops": 40,
    },
    "degraded_wide_large": {
        "why": "(10,4) 16 KiB real payloads with two nodes down: the one workload where "
               "RS encode/decode dominates, and where failure paths are checked on real bytes",
        "code": (10, 4), "value_size": 16384, "objects": 600, "requests": 600,
        "degraded": 100, "drill_ops": 40,
    },
    "engine_load_chaos": {
        "why": "engine replay at C=1,4,16,64 with telemetry, C=16 under faults, then a chaos "
               "run with the heal plane; event queue, stations, timeseries, chaos and heal carry it",
        "code": (6, 3), "value_size": 4096, "objects": 2000, "requests": 8000,
        "chaos_objects": 1500, "chaos_requests": 2400, "probe_degraded": 40,
        "concurrencies": (1, 4, 16, 64),
    },
}

#: fixed-work slices measured by ``perf/layers.py``: name -> (unit, better,
#: "<end-to-end metric> on <workload>" it should move)
_STORE = "wall_ops_per_s on basic_io_five_stores (half the share on update_heavy)"
_LOG = "wall_ops_per_s on update_heavy"
_EC = "wall_ops_per_s on degraded_wide_large"
_ENG = "wall_ops_per_s on engine_load_chaos"
_SETUP = "setup_s on engine_load_chaos and the sequential workloads"
SLICES = {
    "ec.gf_mul_scalar_mb_s": ("MB/s", "higher", _LOG),
    "ec.encode_6_3_4k_mb_s": ("MB/s", "higher", _EC),
    "ec.encode_10_4_16k_mb_s": ("MB/s", "higher", _EC),
    "ec.decode2_10_4_16k_mb_s": ("MB/s", "higher", _EC),
    "ec.xor_repair_mb_s": ("MB/s", "higher", _EC),
    "ec.parity_delta_mb_s": ("MB/s", "higher", _LOG),
    "ec.delta_merge_per_s": ("1/s", "higher", _LOG),
    "kvstore.make_value_per_s": ("1/s", "higher", _STORE),
    "kvstore.memtable_setget_per_s": ("1/s", "higher", _STORE),
    "workloads.generate_requests_per_s": ("1/s", "higher", _SETUP),
    "cluster.lognode_append_per_s": ("1/s", "higher", _LOG),
    "logstore.buffer_add_per_s": ("1/s", "higher", _LOG),
    "logstore.pl.flush_records_per_s": ("1/s", "higher", _LOG),
    "logstore.plr.flush_records_per_s": ("1/s", "higher", _LOG),
    "logstore.plrm.flush_records_per_s": ("1/s", "higher", _LOG),
    "logstore.plm.flush_records_per_s": ("1/s", "higher", _LOG),
    "logstore.pl.read_parity_per_s": ("1/s", "higher", _EC),
    "logstore.plm.read_parity_per_s": ("1/s", "higher", _EC),
    "sim.eventqueue_events_per_s": ("1/s", "higher", _ENG),
    "sim.network_call_per_s": ("1/s", "higher", _STORE),
    "sim.disk_call_per_s": ("1/s", "higher", _LOG),
    "sim.counters_add_per_s": ("1/s", "higher", _STORE),
    "obs.span_per_s": ("1/s", "higher", _STORE),
    "obs.observe_span_per_s": ("1/s", "higher", _STORE),
    "obs.journal_emit_per_s": ("1/s", "higher", _ENG),
    "obs.telemetry_tick_per_s": ("1/s", "higher", _ENG),
    "core.write_per_s": ("1/s", "higher", _STORE),
    "core.read_per_s": ("1/s", "higher", _STORE),
    "core.update_per_s": ("1/s", "higher", _LOG),
    "core.delete_per_s": ("1/s", "higher", _LOG),
    "core.degraded1_per_s": ("1/s", "higher", _EC),
    "core.degraded2_per_s": ("1/s", "higher", _EC),
    "core.repair_chunks_per_s": ("1/s", "higher", _EC),
    "core.scrub_stripes_per_s": ("1/s", "higher", _EC),
    "core.recover_lognode_per_s": ("1/s", "higher", _EC),
    "engine.derive_jobs_per_s": ("1/s", "higher", _SETUP),
    "engine.replay_c1_jobs_per_s": ("1/s", "higher", _ENG),
    "engine.replay_c64_jobs_per_s": ("1/s", "higher", _ENG),
    "engine.events_per_s": ("1/s", "higher", _ENG),
    "engine.telemetry_cost_share": ("share", "lower", _ENG),
    "chaos.ops_per_s": ("1/s", "higher", _ENG),
    "chaos.check_store_s": ("s", "lower", _ENG),
    "heal.poll_per_s": ("1/s", "higher", _ENG),
}
for _store in ("vanilla", "replication", "ipmem", "fsmem"):
    for _op in ("write", "read", "update"):
        SLICES[f"baselines.{_store}.{_op}_per_s"] = ("1/s", "higher", _STORE)

#: per-layer metrics the traced run of each workload adds
TRACE_METRICS = {
    **{f"{layer}.self_share": ("share", "lower") for layer in (*LAYERS, "bench")},
    **{f"{layer}.calls_per_kop": ("count", "lower") for layer in LAYERS},
    "bench.op_us_p50": ("us", "lower"),
    "bench.op_us_p99": ("us", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


def per_layer() -> list[dict]:
    """Every per-layer metric, slices first, in BENCHMARK.json shape."""
    rows = [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better, _) in SLICES.items()
    ]
    rows += [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in TRACE_METRICS.items()
    ]
    return rows


def benchmark_doc() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items()
        ],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": per_layer(),
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_doc(), indent=2))
