"""The paper's experiments (§6.3) as parameterised functions.

Each ``experimentN`` returns a list of row dicts -- one per plotted point --
so the ``benchmarks/`` wrappers can print the same series the paper's figures
show.  The ``scale`` arguments shrink the population/request counts from the
paper's one million to laptop size; all *relative* results are scale-free
because every cost is mechanistic (see DESIGN.md).
"""

from __future__ import annotations

from statistics import mean

from repro.analysis.report import gib
from repro.baselines import make_store
from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.core.repair import repair_node
from repro.workloads.ycsb import WorkloadSpec
from repro.bench.runner import make_scenario, measure_degraded_reads, run_workload

PAPER_CODES = [(6, 3), (10, 4), (12, 4), (15, 3)]
LARGE_CODES = [(16, 4), (32, 4), (64, 4), (128, 4)]
RU_RATIOS = ["95:5", "80:20", "70:30", "50:50"]
SCHEMES = ["pl", "plr", "plr-m", "plm"]

#: full-scale total object bytes the paper reports memory against (1M x 4KiB)
PAPER_TOTAL_OBJECTS = 1_000_000


def _memory_GiB_at_paper_scale(memory_bytes: int, spec: WorkloadSpec) -> float:
    """Scale the measured footprint to the paper's 1M-object population so
    Figure 12/13 numbers are directly comparable."""
    return gib(memory_bytes * (PAPER_TOTAL_OBJECTS / spec.n_objects))


# --------------------------------------------------------------- Experiment 1


def experiment1(
    n_objects: int = 3000,
    n_requests: int = 3000,
    value_sizes: tuple[int, ...] = (1024, 4096, 16384),
    ratios: tuple[str, ...] = ("95:5", "50:50"),
    code: tuple[int, int] = (10, 4),
    stores: tuple[str, ...] = ("vanilla", "replication", "ipmem", "fsmem", "logecmem"),
    degraded_samples: int = 100,
    seed: int = 42,
    jitter: float = 0.0,
) -> list[dict]:
    """Figure 10: read/write/degraded-read latency and throughput.

    ``jitter`` > 0 enables the seeded network-variance model, populating the
    ``*_std_us`` columns (the paper reports variance over ten cloud runs)."""
    k, r = code
    rows = []
    for value_size in value_sizes:
        for ratio in ratios:
            spec = WorkloadSpec.read_write(
                ratio,
                n_objects=n_objects,
                n_requests=n_requests,
                value_size=value_size,
                seed=seed,
            )
            for name in stores:
                config = StoreConfig(k=k, r=r, value_size=value_size)
                config.profile.jitter_fraction = jitter
                store = make_store(name, config)
                result = run_workload(store, spec)
                if name == "vanilla":
                    degraded_us = float("nan")
                else:
                    dl = measure_degraded_reads(store, spec, samples=degraded_samples)
                    degraded_us = mean(dl) * 1e6
                rows.append(
                    {
                        "store": name,
                        "value_size": value_size,
                        "ratio": ratio,
                        "read_latency_us": result.mean_latency_us("read"),
                        "read_std_us": result.std_latency_us("read"),
                        "write_latency_us": result.mean_latency_us("write"),
                        "write_std_us": result.std_latency_us("write"),
                        "degraded_latency_us": degraded_us,
                        "throughput_kops": result.throughput_ops_s / 1e3,
                    }
                )
    return rows


# ------------------------------------------------------- Experiments 2 and 3


def update_memory_sweep(
    codes: list[tuple[int, int]],
    ratios: tuple[str, ...] = tuple(RU_RATIOS),
    stores: tuple[str, ...] = ("replication", "ipmem", "fsmem", "logecmem"),
    n_objects: int = 3000,
    n_requests: int = 3000,
    value_size: int = 4096,
    seed: int = 42,
) -> list[dict]:
    """Shared driver for Figures 11-13 and 16: update latency + memory."""
    rows = []
    for k, r in codes:
        for ratio in ratios:
            for name in stores:
                store, spec = make_scenario(
                    name, "plm", k, r, value_size, ratio, n_objects, n_requests, seed
                )
                result = run_workload(store, spec)
                rows.append(
                    {
                        "store": name,
                        "k": k,
                        "r": r,
                        "ratio": ratio,
                        "update_latency_us": result.mean_latency_us("update"),
                        "read_latency_us": result.mean_latency_us("read"),
                        "memory_GiB": _memory_GiB_at_paper_scale(
                            result.memory_bytes, spec
                        ),
                        "memory_bytes": result.memory_bytes,
                    }
                )
    return rows


def experiment2(**kw) -> list[dict]:
    """Figure 11: update latency for the paper's four codes."""
    return update_memory_sweep(PAPER_CODES, **kw)


#: Figure 12 (memory overhead) plots other columns of Figure 11's runs: one
#: driver under both names, so a caller that needs both can run it once
experiment3 = experiment2


def experiment4(n_objects: int = 4096, **kw) -> list[dict]:
    """Figure 13: the large-scale setting, k in {16, 32, 64, 128}, r = 4."""
    return update_memory_sweep(LARGE_CODES, n_objects=n_objects, **kw)


# --------------------------------------------------------------- Experiment 5


def experiment5(
    codes: list[tuple[int, int]] = PAPER_CODES,
    ratios: tuple[str, ...] = tuple(RU_RATIOS),
    schemes: tuple[str, ...] = tuple(SCHEMES),
    n_objects: int = 3000,
    n_requests: int = 3000,
    value_size: int = 4096,
    seed: int = 42,
    io_code: tuple[int, int] = (10, 4),
) -> list[dict]:
    """Figure 14(a)-(b): disk IOs during updates per log scheme.

    Two sweeps, as the paper plots them: ratios at the ``io_code`` and codes
    at read:update = 95:5.
    """
    rows = []
    sweeps = [(io_code, ratio) for ratio in ratios] + [
        (code, "95:5") for code in codes
    ]
    seen = set()
    for code, ratio in sweeps:
        if (code, ratio) in seen:
            continue
        seen.add((code, ratio))
        k, r = code
        for scheme in schemes:
            store, spec = make_scenario(
                "logecmem", scheme, k, r, value_size, ratio, n_objects, n_requests, seed
            )
            result = run_workload(store, spec)
            rows.append(
                {
                    "scheme": scheme,
                    "k": k,
                    "r": r,
                    "ratio": ratio,
                    "disk_ios": result.disk_io_count,
                    "disk_ios_scaled": result.disk_io_count
                    * (PAPER_TOTAL_OBJECTS / n_requests),
                    "log_disk_MiB": store.cluster.log_disk_logical_bytes() / (1 << 20),
                }
            )
    return rows


# --------------------------------------------------------------- Experiment 6


def experiment6(
    codes: list[tuple[int, int]] = PAPER_CODES,
    ratios: tuple[str, ...] = tuple(RU_RATIOS),
    schemes: tuple[str, ...] = tuple(SCHEMES),
    n_objects: int = 3000,
    n_requests: int = 3000,
    value_size: int = 4096,
    samples: int = 100,
    seed: int = 42,
    io_code: tuple[int, int] = (10, 4),
) -> list[dict]:
    """Figure 14(c)-(d): multi-chunk-failure degraded-read latency.

    Two DRAM nodes are killed (every stripe then misses two DRAM chunks, so
    every degraded read must materialise a logged parity), and the mean
    degraded-read latency is measured per scheme.
    """
    rows = []
    sweeps = [(io_code, ratio) for ratio in ratios] + [
        (code, "95:5") for code in codes
    ]
    seen = set()
    for code, ratio in sweeps:
        if (code, ratio) in seen:
            continue
        seen.add((code, ratio))
        k, r = code
        for scheme in schemes:
            store, spec = make_scenario(
                "logecmem", scheme, k, r, value_size, ratio, n_objects, n_requests, seed
            )
            run_workload(store, spec)
            store.cluster.kill("dram0")
            store.cluster.kill("dram1")
            lats = _degraded_on_failed(store, spec, samples)
            rows.append(
                {
                    "scheme": scheme,
                    "k": k,
                    "r": r,
                    "ratio": ratio,
                    "degraded_latency_us": mean(lats) * 1e6,
                }
            )
    return rows


def _degraded_on_failed(store: LogECMem, spec: WorkloadSpec, samples: int) -> list[float]:
    """Degraded-read latencies for objects that live on failed nodes.

    Keys are drawn from the same Zipfian chooser as the workload, matching
    the paper's measurement where degraded reads arrive from the client's
    request stream (hot objects -- whose stripes hold the most parity deltas
    -- are therefore sampled more often)."""
    from repro.workloads.zipf import ScrambledZipfian
    from repro.workloads.ycsb import object_key

    chooser = ScrambledZipfian(spec.n_objects, theta=spec.theta, seed=spec.seed + 7)
    lats: list[float] = []
    clock = store.cluster.clock
    attempts = 0
    while len(lats) < samples and attempts < 1000 * samples:
        attempts += 1
        key = object_key(int(chooser.next()))
        loc = store.object_index.get(key)
        if loc is None:
            continue
        rec = store.stripe_index.get(loc.stripe_id)
        node = rec.chunk_nodes[loc.seq_no]
        if store.cluster.dram_nodes[node].alive:
            continue
        res = store.read(key)  # auto-degrades
        clock.advance(res.latency_s)
        lats.append(res.latency_s)
    if not lats:
        raise RuntimeError("no objects found on the failed nodes")
    return lats


# --------------------------------------------------------------- Experiment 7


def experiment7(
    codes: list[tuple[int, int]] = PAPER_CODES,
    ratio: str = "95:5",
    n_objects: int = 3000,
    n_requests: int = 1500,
    value_size: int = 4096,
    seed: int = 42,
) -> list[dict]:
    """Figure 15: node repair throughput with and without log-assist."""
    rows = []
    for k, r in codes:
        for log_assist in (False, True):
            store, spec = make_scenario(
                "logecmem", "plm", k, r, value_size, ratio, n_objects, n_requests, seed
            )
            run_workload(store, spec)
            store.cluster.kill("dram0")
            result = repair_node(store, "dram0", log_assist=log_assist)
            rows.append(
                {
                    "k": k,
                    "r": r,
                    "log_assist": log_assist,
                    "repair_time_s": result.repair_time_s,
                    "throughput_GiB_per_min": result.throughput_GiB_per_min,
                    "chunks": result.chunks_repaired,
                    "assisted_stripes": result.log_assisted_stripes,
                }
            )
    return rows
