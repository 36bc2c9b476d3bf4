"""The paper's evaluation as one table: :data:`ARTIFACTS`.

Each entry is one paper artifact (a table or figure of §2.3, §3.1 and §6, or
an extension table EXPERIMENTS.md reports) and fixes its grid (the module
constants its driver sweeps), its default scale, its driver
``(n_objects, n_requests, seed) -> rows`` (one row dict per plotted point),
the paper-style tables it renders from those rows, and its checks
(:mod:`repro.analysis.paper_check`).  :func:`run` is the one pipeline behind
``python -m repro exp``.  The scales shrink the paper's one million objects to
laptop size; *relative* results are scale-free because every cost is
mechanistic (see DESIGN.md).
"""

from __future__ import annotations

from functools import partial
from statistics import mean
from typing import Callable, NamedTuple

from repro.analysis import paper_check as pc
from repro.analysis.observations import (
    measured_full_stripe_overhead,
    observation2_table,
    stripe_update_histogram,
)
from repro.analysis.report import fmt_scientific, format_table, gib
from repro.analysis.tradeoff import table3
from repro.analysis.transfers import sweep_k
from repro.baselines import make_store
from repro.bench.runner import (
    load_store,
    make_scenario,
    measure_degraded_reads,
    run_workload,
)
from repro.core.adaptive import AdaptiveLogECMem
from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.core.repair import repair_node
from repro.core.scrub import scrub
from repro.engine import derive_jobs, run_point
from repro.reliability import table2
from repro.sim.params import ec2_profile, nvram_log_profile, ssd_log_profile
from repro.workloads import generate_requests
from repro.workloads.ycsb import WorkloadSpec, object_key
from repro.workloads.zipf import ScrambledZipfian

PAPER_CODES = [(6, 3), (10, 4), (12, 4), (15, 3)]
LARGE_CODES = [(16, 4), (32, 4), (64, 4), (128, 4)]
#: Figure 16 / Table 3: small k, where FSMem can win update-heavy, and large k
TRADEOFF_CODES = [(6, 3), (10, 4), (16, 4), (32, 4)]
RU_RATIOS = ["95:5", "80:20", "70:30", "50:50"]
SCHEMES = ["pl", "plr", "plr-m", "plm"]
ALL_STORES = ("vanilla", "replication", "ipmem", "fsmem", "logecmem")
EC_STORES = ("ipmem", "fsmem", "logecmem")
VALUE_SIZE = 4096

#: Figure 14's cells per log scheme, as the paper plots them: the ratios at
#: (10,4), then the codes at 95:5 -- plus (6,3) @ 50:50, the cell the
#: PLM-vs-PL degraded-read claim and the strict scheme orderings read
FIG14_CELLS = list(dict.fromkeys(
    [((10, 4), ratio) for ratio in RU_RATIOS] + [(code, "95:5") for code in PAPER_CODES]
))
CLAIM_CELL = ((6, 3), "50:50")

#: forced degraded reads per store / scheme (Figures 10 and 14 c-d)
DEGRADED_SAMPLES = 100

#: full-scale object population the paper reports memory against (1M x 4KiB);
#: Table 1's trace runs at this scale whatever the requested one
PAPER_TOTAL_OBJECTS = 1_000_000


def _rows_to_table(rows: list[dict], columns: list[str], title: str) -> str:
    """``columns`` of ``rows`` as a table, floats to one decimal."""
    body = [
        [f"{v:.1f}" if isinstance(v, float) else v for v in map(row.get, columns)]
        for row in rows
    ]
    return format_table(columns, body, title=title)


def _columns(columns: list[str], title: str) -> Callable[[list[dict]], str]:
    return lambda rows: _rows_to_table(rows, columns, title)


# ------------------------------------------------------- Tables 1 and 2, Fig 3


def table1(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """Table 1 (Observation 2): the analytic model, the trace-measured
    overhead at the paper's exact 1M scale, and a real FSMem run's stale
    bytes at the requested scale -- all for the (6,3) code."""
    rows = []
    for ratio, model in observation2_table(RU_RATIOS).items():
        paper_spec = WorkloadSpec.read_update(
            ratio, n_objects=PAPER_TOTAL_OBJECTS, n_requests=PAPER_TOTAL_OBJECTS, seed=seed
        )
        spec = WorkloadSpec.read_update(
            ratio, n_objects=n_objects, n_requests=n_requests, seed=seed
        )
        store = make_store("fsmem", StoreConfig(k=6, r=3))
        run_workload(store, spec)
        rows.append({
            "ratio": ratio,
            "in_place": model["in-place"],
            "full_stripe": model["full-stripe"],
            "trace": measured_full_stripe_overhead(6, paper_spec),
            "fsmem_run": 1.0 + store.stale_logical_bytes / (spec.n_objects * spec.value_size),
        })
    return rows


def _render_tab1(rows: list[dict]) -> str:
    model = format_table(
        ["r:u", "in-place", "full-stripe"],
        [[row["ratio"], "M", f"{row['full_stripe']:.2f}M"] for row in rows],
        title="Table 1: memory overhead",
    )
    measured = format_table(
        ["r:u", "trace (1M objects)", "FSMem run", "paper"],
        [[row["ratio"], f"{row['trace']:.3f}M", f"{row['fsmem_run']:.3f}M",
          f"{pc.PAPER_TABLE1[row['ratio']]:.2f}M"] for row in rows],
        title="Table 1: full-stripe overhead, measured",
    )
    return f"{model}\n{measured}"


def table2_rows(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """Table 2 from the §3.1 Markov model (analytic: the scale is unused)."""
    return [
        {"k": k, "r": r, "bandwidth_gbps": b, "mttdl_years": years}
        for (k, r), cells in table2().items()
        for b, years in cells.items()
    ]


def _render_tab2(rows: list[dict]) -> str:
    codes = dict.fromkeys((row["k"], row["r"]) for row in rows)
    return format_table(
        ["code", "B=1", "B=10", "B=40", "B=100"],
        [[f"({k},{r})"] + [fmt_scientific(row["mttdl_years"]) for row in rows
                           if (row["k"], row["r"]) == (k, r)] for k, r in codes],
        title="Table 2: MTTDL (years)",
    )


def figure3(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """Figure 3 (Observation 1): updated stripes by number of new chunks,
    trace-driven over the stores' Zipfian request stream."""
    rows = []
    for k, r in PAPER_CODES:
        for ratio in RU_RATIOS:
            spec = WorkloadSpec.read_update(
                ratio, n_objects=n_objects, n_requests=n_requests, seed=seed
            )
            hist = stripe_update_histogram(k, spec)
            rows += [{"k": k, "r": r, "ratio": ratio, "new_chunks": b, "stripes": hist[b]}
                     for b in sorted(hist)]
    return rows


def _render_fig3(rows: list[dict]) -> str:
    tables = []
    for k, r in dict.fromkeys((row["k"], row["r"]) for row in rows):
        mine = [row for row in rows if row["k"] == k]
        buckets = range(1, max(row["new_chunks"] for row in mine) + 1)
        hists = {ratio: {} for ratio in dict.fromkeys(row["ratio"] for row in mine)}
        for row in mine:
            hists[row["ratio"]][row["new_chunks"]] = row["stripes"]
        tables.append(format_table(
            ["r:u"] + [str(b) for b in buckets],
            [[ratio] + [hist.get(b, 0) for b in buckets] for ratio, hist in hists.items()],
            title=f"Figure 3: updated stripes by # new chunks, ({k},{r}) code",
        ))
    return "\n".join(tables)


# ----------------------------------------------------------- Figure 10 (Exp 1)


def experiment1(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """Figure 10: read/write/degraded-read latency and throughput, (10,4)."""
    rows = []
    for value_size in (1024, 4096, 16384):
        for ratio in ("95:5", "50:50"):
            spec = WorkloadSpec.read_write(ratio, n_objects=n_objects, n_requests=n_requests,
                                           value_size=value_size, seed=seed)
            for name in ALL_STORES:
                store = make_store(name, StoreConfig(k=10, r=4, value_size=value_size))
                result = run_workload(store, spec)
                degraded_us = float("nan")  # Vanilla has no redundancy to degrade onto
                if name != "vanilla":
                    dl = measure_degraded_reads(store, spec, samples=DEGRADED_SAMPLES)
                    degraded_us = mean(dl) * 1e6
                rows.append({
                    "store": name,
                    "value_size": value_size,
                    "ratio": ratio,
                    "read_latency_us": result.mean_latency_us("read"),
                    "read_std_us": result.std_latency_us("read"),
                    "write_latency_us": result.mean_latency_us("write"),
                    "write_std_us": result.std_latency_us("write"),
                    "degraded_latency_us": degraded_us,
                    "throughput_kops": result.throughput_ops_s / 1e3,
                })
    return rows


# ------------------------------------------------ Figures 11-13 and 16 (Exp 2-4)


def update_memory_sweep(
    codes: list[tuple[int, int]], stores: tuple[str, ...], n_objects: int, n_requests: int,
    seed: int,
) -> list[dict]:
    """Shared driver for Figures 11-13 and 16: update latency + memory over
    ``codes`` x the four ratios x ``stores``."""
    rows = []
    for k, r in codes:
        for ratio in RU_RATIOS:
            for name in stores:
                store, spec = make_scenario(
                    name, "plm", k, r, VALUE_SIZE, ratio, n_objects, n_requests, seed
                )
                result = run_workload(store, spec)
                rows.append({
                    "store": name,
                    "k": k,
                    "r": r,
                    "ratio": ratio,
                    "update_latency_us": result.mean_latency_us("update"),
                    "read_latency_us": result.mean_latency_us("read"),
                    # scaled to the paper's 1M objects, as Figures 12/13 plot
                    "memory_GiB": gib(result.memory_bytes * (PAPER_TOTAL_OBJECTS / n_objects)),
                    "memory_bytes": result.memory_bytes,
                })
    return rows


def _render_fig16(rows: list[dict]) -> str:
    points = _rows_to_table(
        rows, ["store", "k", "ratio", "update_latency_us", "memory_GiB"], "Figure 16 points"
    )
    rankings = format_table(
        ["k", "r:u", "IPMem", "FSMem", "LogECMem"],
        [[k, ratio, c["ipmem"], c["fsmem"], c["logecmem"]]
         for (k, ratio), c in sorted(table3(rows).items())],
        title="Table 3 rankings",
    )
    return f"{points}\n{rankings}"


# ------------------------------------------------- Figure 14 (Experiments 5-6)


def _log_scheme_runs(n_objects: int, n_requests: int, seed: int):
    """One finished LogECMem run per (cell of :data:`FIG14_CELLS` and the
    claim cell) x scheme: ``(store, spec, k, r, ratio, scheme, result)``."""
    for (k, r), ratio in [*FIG14_CELLS, CLAIM_CELL]:
        for scheme in SCHEMES:
            store, spec = make_scenario(
                "logecmem", scheme, k, r, VALUE_SIZE, ratio, n_objects, n_requests, seed
            )
            yield store, spec, k, r, ratio, scheme, run_workload(store, spec)


def experiment5(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """Figure 14(a)-(b): disk IOs during updates per log scheme."""
    return [
        {
            "scheme": scheme,
            "k": k,
            "r": r,
            "ratio": ratio,
            "disk_ios": result.disk_io_count,
            "disk_ios_scaled": result.disk_io_count * (PAPER_TOTAL_OBJECTS / n_requests),
            "log_disk_MiB": store.cluster.log_disk_logical_bytes() / (1 << 20),
        }
        for store, _, k, r, ratio, scheme, result in _log_scheme_runs(
            n_objects, n_requests, seed
        )
    ]


def experiment6(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """Figure 14(c)-(d): multi-chunk-failure degraded-read latency.

    Two DRAM nodes are killed (every stripe then misses two DRAM chunks, so
    every degraded read must materialise a logged parity), and the mean
    degraded-read latency is measured per scheme.
    """
    rows = []
    for store, spec, k, r, ratio, scheme, _ in _log_scheme_runs(n_objects, n_requests, seed):
        store.cluster.kill("dram0")
        store.cluster.kill("dram1")
        lats = _degraded_on_failed(store, spec, DEGRADED_SAMPLES)
        rows.append({"scheme": scheme, "k": k, "r": r, "ratio": ratio,
                     "degraded_latency_us": mean(lats) * 1e6})
    return rows


def _degraded_on_failed(store: LogECMem, spec: WorkloadSpec, samples: int) -> list[float]:
    """Degraded-read latencies for objects that live on failed nodes.

    Keys are drawn from the same Zipfian chooser as the workload, matching
    the paper's measurement where degraded reads arrive from the client's
    request stream (hot objects -- whose stripes hold the most parity deltas
    -- are therefore sampled more often)."""
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


def _log_scheme_render(column: str, title: str) -> Callable[[list[dict]], str]:
    """``column`` over the figure's paper cells, then over the added claim
    cell (the last cell :func:`_log_scheme_runs` runs)."""
    columns = ["scheme", "k", "r", "ratio", column]
    cut = -len(SCHEMES)
    return lambda rows: "\n".join([
        _rows_to_table(rows[:cut], columns, title),
        _rows_to_table(rows[cut:], columns, "Added cell ({},{}) @ {}".format(*CLAIM_CELL[0],
                                                                          CLAIM_CELL[1])),
    ])


def _render_fig14ab(rows: list[dict]) -> str:
    footprint = _rows_to_table(
        [row for row in rows if row["k"] == 10], ["scheme", "k", "r", "ratio", "log_disk_MiB"],
        "Extension: log-node disk footprint MiB, (10,4) (PL never compacts)",
    )
    return f"{_log_scheme_render('disk_ios', 'Experiment 5 (Figure 14 a-b)')(rows)}\n{footprint}"


# ----------------------------------------------------------- Figure 15 (Exp 7)


def experiment7(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """Figure 15: node repair throughput with and without log-assist."""
    rows = []
    for k, r in PAPER_CODES:
        for log_assist in (False, True):
            store, spec = make_scenario(
                "logecmem", "plm", k, r, VALUE_SIZE, "95:5", n_objects, n_requests, seed
            )
            run_workload(store, spec)
            store.cluster.kill("dram0")
            result = repair_node(store, "dram0", log_assist=log_assist)
            rows.append({
                "k": k,
                "r": r,
                "log_assist": log_assist,
                "repair_time_s": result.repair_time_s,
                "throughput_GiB_per_min": result.throughput_GiB_per_min,
                "chunks": result.chunks_repaired,
                "assisted_stripes": result.log_assisted_stripes,
            })
    return rows


# ---------------------------------------------------------------- extensions


WIDE_KS = [6, 10, 12, 15, 16, 32, 64, 128]


def wide_stripe(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """§2.2.1 quantified: per-update chunk transfers of every update scheme as
    k grows (r = 4, update-light m = 1; analytic: the scale is unused)."""
    return sweep_k(WIDE_KS, r=4, new_chunks_per_stripe=1)


def _render_wide_stripe(rows: list[dict]) -> str:
    schemes = dict.fromkeys(row["scheme"] for row in rows)
    return format_table(
        ["scheme"] + [f"k={k}" for k in WIDE_KS],
        [[scheme] + [f"{row['total']:.1f}" for row in rows if row["scheme"] == scheme]
         for scheme in schemes],
        title="Wide stripes (§2.2.1): chunk transfers per update, r=4, m=1",
    )


MEDIA = [("ebs", ec2_profile), ("ssd", ssd_log_profile), ("nvram", nvram_log_profile)]


def log_media(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """§9 future work: two-failure degraded reads over EBS, SSD and NVRAM log
    nodes, (10,4), r:u = 50:50."""
    rows = []
    for media, profile in MEDIA:
        for scheme in ("pl", "plm"):
            spec = WorkloadSpec.read_update(
                "50:50", n_objects=n_objects, n_requests=n_requests, seed=seed
            )
            store = LogECMem(StoreConfig(k=10, r=4, scheme=scheme, profile=profile()))
            run_workload(store, spec)
            store.cluster.kill("dram0")
            store.cluster.kill("dram1")
            degraded_us = mean(_degraded_on_failed(store, spec, samples=40)) * 1e6
            rows.append({"media": media, "scheme": scheme, "degraded_us": degraded_us})
    return rows


def adaptive_coalescing(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """§9 future work: popularity-aware delta coalescing (AdaptiveLogECMem)
    against plain LogECMem, (10,4)."""
    rows = []
    for ratio in ("80:20", "50:50"):
        spec = WorkloadSpec.read_update(
            ratio, n_objects=n_objects, n_requests=n_requests, seed=seed
        )
        for name, store in (
            ("logecmem", LogECMem(StoreConfig(k=10, r=4))),
            ("adaptive", AdaptiveLogECMem(StoreConfig(k=10, r=4), hot_threshold=2,
                                          coalesce_updates=8)),
        ):
            result = run_workload(store, spec)
            rows.append({
                "ratio": ratio,
                "store": name,
                "deltas": store.counters["parity_deltas_sent"],
                "disk_ios": result.disk_io_count,
                "update_us": result.mean_latency_us("update"),
                "scrub_clean": scrub(store).clean,
            })
    return rows


def closed_loop(n_objects: int, n_requests: int, seed: int) -> list[dict]:
    """Closed-loop throughput under queueing (complements Figure 10 e-f):
    each store's span-derived jobs replayed through the engine, (10,4),
    r:w = 50:50, next to the sequential runner's total latency."""
    spec = WorkloadSpec.read_write(
        "50:50", n_objects=n_objects, n_requests=n_requests, seed=seed
    )
    cfg = StoreConfig(k=10, r=4)
    rows = []
    for name in ALL_STORES:
        store = make_store(name, cfg)
        load_store(store, spec)
        jobs = derive_jobs(store, generate_requests(spec))
        points = {clients: run_point(jobs, cfg.profile, clients) for clients in (1, 8, 64)}
        result = run_workload(make_store(name, cfg), spec)
        sequential_s = sum(sum(v) for v in result.latencies_s.values())
        for clients, point in points.items():
            rows.append({
                "store": name,
                "clients": clients,
                "requests": n_requests,
                "jobs_completed": point.jobs_completed,
                "makespan_s": point.makespan_s,
                "sequential_s": sequential_s,
                "throughput_ops_s": point.throughput_ops_s,
                "proxy_cpu": point.stations.get("proxy_cpu", {}).get("utilisation", 0.0),
                "proxy_nic": point.stations.get("proxy_nic", {}).get("utilisation", 0.0),
                "response_us": point.overall["mean_us"],
            })
    return rows


# ----------------------------------------------------------------- the table


class Artifact(NamedTuple):
    title: str
    objects: int
    requests: int
    driver: Callable[[int, int, int], list[dict]]
    render: Callable[[list[dict]], str]
    checks: Callable[[list[dict]], list[pc.Check]]


#: Figures 11 and 12 plot two columns of the same runs: one driver object,
#: which :func:`run` calls once for both
_PAPER_SWEEP = partial(update_memory_sweep, PAPER_CODES, ALL_STORES[1:])

ARTIFACTS: dict[str, Artifact] = {
    "tab1": Artifact("Table 1 (Observation 2)", 1200, 1200, table1, _render_tab1,
                     pc.check_tab1),
    "tab2": Artifact("Table 2 (MTTDL)", 1, 0, table2_rows, _render_tab2, pc.check_tab2),
    "fig3": Artifact("Figure 3 (Observation 1)", PAPER_TOTAL_OBJECTS, PAPER_TOTAL_OBJECTS,
                     figure3, _render_fig3, pc.check_fig3),
    "fig10": Artifact(
        "Figure 10 (Experiment 1)", 1500, 1500, experiment1,
        _columns(["store", "value_size", "ratio", "read_latency_us", "write_latency_us",
                  "degraded_latency_us", "throughput_kops"], "Experiment 1 (Figure 10)"),
        pc.check_fig10),
    "fig11": Artifact(
        "Figure 11 (Experiment 2)", 1500, 1500, _PAPER_SWEEP,
        _columns(["store", "k", "r", "ratio", "update_latency_us"],
                 "Experiment 2 (Figure 11)"),
        pc.check_fig11),
    "fig12": Artifact(
        "Figure 12 (Experiment 3)", 1500, 1500, _PAPER_SWEEP,
        _columns(["store", "k", "r", "ratio", "memory_GiB"], "Experiment 3 (Figure 12)"),
        pc.check_fig12),
    "fig13": Artifact(
        "Figure 13 (Experiment 4)", 4096, 1024,
        partial(update_memory_sweep, LARGE_CODES, ALL_STORES[1:]),
        _columns(["store", "k", "r", "ratio", "update_latency_us", "memory_GiB"],
                 "Experiment 4 (Figure 13)"),
        pc.check_fig13),
    "fig14ab": Artifact("Figure 14 a-b (Experiment 5)", 1500, 1500, experiment5,
                        _render_fig14ab, pc.check_fig14ab),
    "fig14cd": Artifact(
        "Figure 14 c-d (Experiment 6)", 1200, 1200, experiment6,
        _log_scheme_render("degraded_latency_us", "Experiment 6 (Figure 14 c-d)"),
        pc.check_fig14cd),
    "fig15": Artifact(
        "Figure 15 (Experiment 7)", 2400, 1200, experiment7,
        _columns(["k", "r", "log_assist", "repair_time_s", "throughput_GiB_per_min"],
                 "Experiment 7 (Figure 15)"),
        pc.check_fig15),
    "fig16": Artifact("Figure 16 + Table 3", 1500, 1500,
                      partial(update_memory_sweep, TRADEOFF_CODES, EC_STORES),
                      _render_fig16, pc.check_fig16),
    "wide-stripe": Artifact("Extension: wide-stripe transfers", 1, 0, wide_stripe,
                            _render_wide_stripe, lambda rows: []),
    "log-media": Artifact(
        "Extension: log media", 900, 900, log_media,
        _columns(["media", "scheme", "degraded_us"],
                 "2-failure degraded reads vs log media, (10,4) r:u=50:50"),
        pc.check_media),
    "coalescing": Artifact(
        "Extension: popularity-aware coalescing", 900, 900, adaptive_coalescing,
        _columns(["ratio", "store", "deltas", "disk_ios", "update_us"],
                 "Popularity-aware coalescing (§9), (10,4) code"),
        pc.check_adaptive),
    "closed-loop": Artifact(
        "Extension: closed-loop throughput", 800, 800, closed_loop,
        _columns(["store", "clients", "throughput_ops_s", "proxy_cpu", "proxy_nic",
                  "response_us"], "Engine closed-loop throughput, (10,4), r:w=50:50"),
        pc.check_closedloop),
}


class Outcome(NamedTuple):
    name: str
    scale: dict  # the n_objects/n_requests/seed the driver ran at
    rows: list[dict]
    text: str
    checks: list[pc.Check]


def run(names, objects: int | None = None, requests: int | None = None, seed: int = 42):
    """Yield one :class:`Outcome` per artifact of ``names``, each at its
    default scale unless ``objects``/``requests`` are given.  A driver two
    artifacts share runs once per scale."""
    cache: dict = {}
    for name in names:
        art = ARTIFACTS[name]
        scale = dict(
            n_objects=art.objects if objects is None else objects,
            n_requests=art.requests if requests is None else requests,
            seed=seed,
        )
        key = (art.driver, *scale.values())
        try:
            if key not in cache:
                cache[key] = art.driver(**scale)
            rows = cache[key]
            checks = art.checks(rows)
        except (ArithmeticError, LookupError, ValueError, RuntimeError) as exc:
            # a scale too small for the grid (nothing sealed, nothing updated,
            # no object on a failed node) leaves nothing to measure or
            # compare: a failed check, not a crash
            rows, checks = [], [pc.shape(f"runs at this scale ({exc!r})", False)]
        yield Outcome(name, scale, rows, art.render(rows), checks)
