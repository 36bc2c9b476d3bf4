"""Command-line reproduction driver: ``python -m repro <command>``.

Commands mirror the paper's artifact-evaluation workflow:

* ``table2``                         -- the §3.1 MTTDL table
* ``observation1`` / ``observation2`` -- §2.3's motivating measurements
* ``exp1`` .. ``exp7``               -- the §6.3 experiments (scaled)
* ``tradeoff``                       -- Figure 16 points + Table 3 rankings
* ``run``                            -- one store under one workload/preset

Every command prints paper-style plain-text tables; scales are configurable
with ``--objects/--requests``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import (
    fmt_scientific,
    format_table,
    observation2_table,
    stripe_update_histogram,
    table3,
)
from repro.baselines import make_store
from repro.bench import experiments as exps
from repro.bench.runner import run_requests
from repro.core.config import StoreConfig
from repro.reliability import table2
from repro.workloads import (
    WorkloadSpec,
    generate_preset_requests,
    generate_requests,
    load_keys,
    preset_spec,
)

DEFAULT_OBJECTS = 1500
DEFAULT_REQUESTS = 1500


def _parse_code(text: str) -> tuple[int, int]:
    try:
        k, r = (int(x) for x in text.split(","))
        return k, r
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"code must look like '6,3', got {text!r}"
        ) from None


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _add_scale(p: argparse.ArgumentParser) -> None:
    p.add_argument("--objects", type=int, default=DEFAULT_OBJECTS)
    p.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--out",
        default=None,
        help="also save the raw rows to this .json or .csv file",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LogECMem (SC'21) reproduction driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="MTTDL Markov model (Table 2)")

    p = sub.add_parser("observation1", help="updated stripes histogram (Figure 3)")
    p.add_argument("--code", type=_parse_code, default=(6, 3))
    p.add_argument("--ratio", default="95:5")
    _add_scale(p)

    sub.add_parser("observation2", help="memory overhead model (Table 1)")

    for name, help_text in [
        ("exp1", "basic I/O latency + throughput (Figure 10)"),
        ("exp2", "update latency (Figure 11)"),
        ("exp3", "memory overhead (Figure 12)"),
        ("exp4", "large-scale k (Figure 13)"),
        ("exp5", "disk IOs per log scheme (Figure 14 a-b)"),
        ("exp6", "multi-failure repair latency (Figure 14 c-d)"),
        ("exp7", "node repair throughput (Figure 15)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_scale(p)

    p = sub.add_parser("tradeoff", help="Figure 16 points + Table 3 rankings")
    _add_scale(p)

    p = sub.add_parser(
        "report",
        help="run every table/figure at one scale; write REPORT.txt + row files",
    )
    p.add_argument("--dir", default="results", help="output directory")
    _add_scale(p)

    p = sub.add_parser("run", help="run one store under one workload")
    p.add_argument("--store", default="logecmem",
                   choices=["vanilla", "replication", "ipmem", "fsmem", "logecmem"])
    p.add_argument("--code", type=_parse_code, default=(6, 3))
    p.add_argument("--ratio", default=None, help="read:update ratio, e.g. 80:20")
    p.add_argument("--preset", default=None, help="YCSB preset A-F")
    p.add_argument("--scheme", default="plm", choices=["pl", "plr", "plr-m", "plm"])
    p.add_argument("--value-size", type=int, default=4096)
    _add_scale(p)

    p = sub.add_parser(
        "profile",
        help="span-traced per-phase profile; writes a deterministic perf "
        "snapshot (BENCH_PR3.json)",
    )
    p.add_argument(
        "experiment",
        choices=["exp1", "exp2", "exp6", "exp7", "heal", "load", "all"],
        help="which profile slice to run ('all' = every slice)",
    )
    p.add_argument("--objects", type=int, default=600)
    p.add_argument("--requests", type=int, default=600)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--out",
        default="BENCH_PR3.json",
        help="perf-snapshot path (default: BENCH_PR3.json)",
    )

    p = sub.add_parser(
        "load",
        help="concurrent-engine load curves: throughput vs latency across "
        "closed-loop client concurrencies (optionally under chaos)",
    )
    p.add_argument("--store", default="logecmem",
                   choices=["vanilla", "replication", "ipmem", "fsmem", "logecmem"])
    p.add_argument("--code", type=_parse_code, default=(6, 3))
    p.add_argument("--ratio", default="50:50", help="read:update ratio")
    p.add_argument("--scheme", default="plm", choices=["pl", "plr", "plr-m", "plm"])
    p.add_argument("--value-size", type=int, default=4096)
    p.add_argument("--concurrency", default="1,4,16,64",
                   help="comma-separated closed-loop client counts")
    p.add_argument("--think-us", type=float, default=0.0,
                   help="per-client think time between ops (microseconds)")
    p.add_argument("--window", type=int, default=0,
                   help="admission window (in-flight cap at the proxy; "
                   "0 = unbounded)")
    p.add_argument("--queue-cap", type=int, default=128,
                   help="admission overflow queue capacity (beyond it, "
                   "deterministic reject)")
    p.add_argument("--chaos", action="store_true",
                   help="also run each point under a seeded fault schedule "
                   "and attribute latency to fault windows")
    p.add_argument("--faults", type=_positive_float, default=4.0,
                   help="expected fault arrivals per point when --chaos is set")
    _add_scale(p)

    p = sub.add_parser(
        "watch",
        help="sim-time telemetry view: one engine point rendered as ASCII "
        "strip charts with SLO burn verdict and chaos windows marked",
    )
    p.add_argument("--store", default="logecmem",
                   choices=["vanilla", "replication", "ipmem", "fsmem", "logecmem"])
    p.add_argument("--code", type=_parse_code, default=(6, 3))
    p.add_argument("--ratio", default="50:50", help="read:update ratio")
    p.add_argument("--scheme", default="plm", choices=["pl", "plr", "plr-m", "plm"])
    p.add_argument("--value-size", type=int, default=4096)
    p.add_argument("--concurrency", type=int, default=16,
                   help="closed-loop client count for the watched point")
    p.add_argument("--think-us", type=float, default=0.0,
                   help="per-client think time between ops (microseconds)")
    p.add_argument("--window", type=int, default=0,
                   help="admission window (0 = unbounded)")
    p.add_argument("--queue-cap", type=int, default=128,
                   help="admission overflow queue capacity")
    p.add_argument("--chaos", action="store_true",
                   help="rerun under a seeded fault schedule; windows are "
                   "shaded under the charts")
    p.add_argument("--faults", type=_positive_float, default=2.0,
                   help="expected fault arrivals when --chaos is set")
    p.add_argument("--samples", type=int, default=48,
                   help="telemetry ticks across the run")
    p.add_argument("--slo-factor", type=_positive_float, default=1.5,
                   help="SLO p99 target as a multiple of the clean run's p99")
    p.add_argument("--width", type=int, default=60,
                   help="strip-chart width in columns")
    p.add_argument("--series", action="append", default=[], metavar="PREFIX",
                   help="chart only series matching these name prefixes "
                   "(repeatable)")
    p.add_argument("--json", action="store_true",
                   help="print the byte-stable watch document instead of charts")
    p.add_argument("--csv-out", default=None,
                   help="write the telemetry series as CSV to this path")
    p.add_argument("--jsonl-out", default=None,
                   help="write the telemetry series as JSONL to this path")
    p.add_argument("--prometheus", action="store_true",
                   help="also print timestamped Prometheus telemetry samples")
    _add_scale(p)

    p = sub.add_parser(
        "chaos", help="workload under a seeded fault schedule + invariant sweep"
    )
    p.add_argument("--store", default="logecmem",
                   choices=["vanilla", "replication", "ipmem", "fsmem", "logecmem"])
    p.add_argument("--code", type=_parse_code, default=(6, 3))
    p.add_argument("--ratio", default="50:50", help="read:update ratio")
    p.add_argument("--scheme", default="plm", choices=["pl", "plr", "plr-m", "plm"])
    p.add_argument("--value-size", type=int, default=4096)
    p.add_argument("--faults", type=_positive_float, default=4.0,
                   help="expected fault arrivals over the run (Poisson)")
    p.add_argument("--timeline", action="store_true",
                   help="also print the full fault/recovery timeline")
    _add_scale(p)

    p = sub.add_parser(
        "heal",
        help="closed-loop resilience experiment: the same seeded chaos run "
        "with and without the self-healing control plane",
    )
    p.add_argument("--store", default="logecmem",
                   choices=["vanilla", "replication", "ipmem", "fsmem", "logecmem"])
    p.add_argument("--code", type=_parse_code, default=(6, 3))
    p.add_argument("--ratio", default="50:50", help="read:update ratio")
    p.add_argument("--scheme", default="plm", choices=["pl", "plr", "plr-m", "plm"])
    p.add_argument("--value-size", type=int, default=4096)
    p.add_argument("--faults", type=_positive_float, default=6.0,
                   help="expected fault arrivals over the run (Poisson)")
    p.add_argument("--report", action="store_true",
                   help="print the full MTTR/availability table and every "
                   "executed action")
    _add_scale(p)

    p = sub.add_parser(
        "inspect",
        help="run a workload, then dump node/stripe/log state, the flight-"
        "recorder journal, and optional exporter output",
    )
    p.add_argument("--store", default="logecmem",
                   choices=["vanilla", "replication", "ipmem", "fsmem", "logecmem"])
    p.add_argument("--code", type=_parse_code, default=(6, 3))
    p.add_argument("--ratio", default="50:50", help="read:update ratio")
    p.add_argument("--scheme", default="plm", choices=["pl", "plr", "plr-m", "plm"])
    p.add_argument("--value-size", type=int, default=4096)
    p.add_argument("--chaos", action="store_true",
                   help="run under a seeded fault schedule (enables "
                   "fault-window attribution)")
    p.add_argument("--faults", type=_positive_float, default=4.0,
                   help="expected fault arrivals when --chaos is set")
    p.add_argument("--tail", type=int, default=20,
                   help="journal events to print (0 disables)")
    p.add_argument("--timeline", action="store_true",
                   help="render the ASCII event timeline")
    p.add_argument("--stripe", type=int, default=None,
                   help="dump one stripe's placement in detail")
    p.add_argument("--prometheus", action="store_true",
                   help="print the Prometheus text exposition")
    p.add_argument("--journal-out", default=None,
                   help="write the full journal as JSONL to this path")
    _add_scale(p)

    p = sub.add_parser(
        "lint",
        help="simlint: AST-based determinism & sim-hygiene analysis "
        "(SIM001-SIM009) over src/ and tests/",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: src tests)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="finding output format (both byte-deterministic)")
    p.add_argument("--root", default=None,
                   help="repo root for relative paths/registries (default: cwd)")
    p.add_argument("--baseline", default=None,
                   help="baseline JSON of grandfathered finding ids "
                   "(default: <root>/simlint-baseline.json)")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline with every current finding id")
    p.add_argument("--allow-wallclock", action="append", default=[],
                   metavar="GLOB",
                   help="relpath glob where SIM001 wall-clock calls are "
                   "permitted (repeatable)")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--check-baseline", action="store_true",
                   help="also fail if any baseline finding id no longer "
                   "resolves against the tree (staleness guard)")

    p = sub.add_parser(
        "sanitize",
        help="simsan: re-run engine/chaos/heal slices under permuted "
        "event tie-breaking and diff state fingerprints",
    )
    p.add_argument("--slices", default="engine,chaos,heal",
                   help="comma-separated slices to run (engine, chaos, heal)")
    p.add_argument("--fixture", action="append", default=[], metavar="FILE",
                   help="also run a scenario() fixture file under the "
                   "sanitizer (repeatable)")
    p.add_argument("--fixtures-only", action="store_true",
                   help="skip the built-in slices (only run --fixture files)")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as canonical JSON")
    p.add_argument("--shuffle-seed", type=int, default=None,
                   help="seed for the shuffled tie-break mode")
    p.add_argument("--objects", type=int, default=200)
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None,
                   help="also write the JSON report to this path")

    p = sub.add_parser(
        "compare",
        help="regression gate: diff two BENCH_*.json profile snapshots",
    )
    p.add_argument("baseline", help="committed baseline profile JSON")
    p.add_argument("candidate", help="freshly generated profile JSON")
    p.add_argument("--experiments", nargs="+", default=None,
                   help="restrict to these experiment slices")
    p.add_argument("--out", default=None,
                   help="also write the verdict JSON to this path")
    return parser


def _rows_to_table(rows: list[dict], columns: list[str], title: str) -> str:
    body = [[_fmt(row.get(c)) for c in columns] for row in rows]
    return format_table(columns, body, title=title)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.1f}"
    return value


def cmd_table2(args, out) -> None:
    grid = table2()
    rows = []
    for (k, r), cells in grid.items():
        rows.append([f"({k},{r})"] + [fmt_scientific(cells[b]) for b in (1, 10, 40, 100)])
    out(format_table(
        ["code", "B=1", "B=10", "B=40", "B=100"], rows,
        title="Table 2: MTTDL (years)",
    ))


def cmd_observation1(args, out) -> None:
    k, r = args.code
    spec = WorkloadSpec.read_update(
        args.ratio, n_objects=args.objects, n_requests=args.requests, seed=args.seed
    )
    hist = stripe_update_histogram(k, spec)
    out(format_table(
        ["# new chunks", "# updated stripes"],
        [[b, hist[b]] for b in sorted(hist)],
        title=f"Figure 3: ({k},{r}) code, r:u={args.ratio}",
    ))


def cmd_observation2(args, out) -> None:
    table = observation2_table()
    rows = [
        [ratio, "M", f"{cells['full-stripe']:.2f}M"] for ratio, cells in table.items()
    ]
    out(format_table(["r:u", "in-place", "full-stripe"], rows,
                     title="Table 1: memory overhead"))


def cmd_experiment(args, out) -> None:
    scale = dict(n_objects=args.objects, n_requests=args.requests, seed=args.seed)
    if args.command == "exp1":
        rows = exps.experiment1(**scale)
        cols = ["store", "value_size", "ratio", "read_latency_us",
                "write_latency_us", "degraded_latency_us", "throughput_kops"]
        title = "Experiment 1 (Figure 10)"
    elif args.command == "exp2":
        rows = exps.experiment2(**scale)
        cols = ["store", "k", "r", "ratio", "update_latency_us"]
        title = "Experiment 2 (Figure 11)"
    elif args.command == "exp3":
        rows = exps.experiment3(**scale)
        cols = ["store", "k", "r", "ratio", "memory_GiB"]
        title = "Experiment 3 (Figure 12)"
    elif args.command == "exp4":
        rows = exps.experiment4(**scale)
        cols = ["store", "k", "r", "ratio", "update_latency_us", "memory_GiB"]
        title = "Experiment 4 (Figure 13)"
    elif args.command == "exp5":
        rows = exps.experiment5(**scale)
        cols = ["scheme", "k", "r", "ratio", "disk_ios"]
        title = "Experiment 5 (Figure 14 a-b)"
    elif args.command == "exp6":
        rows = exps.experiment6(**scale)
        cols = ["scheme", "k", "r", "ratio", "degraded_latency_us"]
        title = "Experiment 6 (Figure 14 c-d)"
    else:
        rows = exps.experiment7(
            n_objects=args.objects, n_requests=args.requests, seed=args.seed
        )
        cols = ["k", "r", "log_assist", "repair_time_s", "throughput_GiB_per_min"]
        title = "Experiment 7 (Figure 15)"
    out(_rows_to_table(rows, cols, title))
    if getattr(args, "out", None):
        from repro.bench import results

        path = results.save(
            rows,
            args.out,
            meta={
                "command": args.command,
                "objects": args.objects,
                "requests": args.requests,
                "seed": args.seed,
            },
        )
        out(f"rows saved to {path}")


def cmd_tradeoff(args, out) -> None:
    rows = exps.update_memory_sweep(
        [(6, 3), (10, 4), (16, 4)],
        stores=("ipmem", "fsmem", "logecmem"),
        n_objects=args.objects,
        n_requests=args.requests,
        seed=args.seed,
    )
    out(_rows_to_table(
        rows, ["store", "k", "ratio", "update_latency_us", "memory_GiB"],
        "Figure 16 points",
    ))
    cells = table3(rows)
    out(format_table(
        ["k", "r:u", "IPMem", "FSMem", "LogECMem"],
        [[k, ratio, c["ipmem"], c["fsmem"], c["logecmem"]]
         for (k, ratio), c in sorted(cells.items())],
        title="Table 3 rankings",
    ))


def cmd_run(args, out) -> None:
    k, r = args.code
    config = StoreConfig(k=k, r=r, value_size=args.value_size, scheme=args.scheme)
    store = make_store(args.store, config)
    if args.preset:
        spec = preset_spec(
            args.preset, n_objects=args.objects, n_requests=args.requests,
            value_size=args.value_size, seed=args.seed,
        )
        requests = generate_preset_requests(args.preset, spec)
        label = f"YCSB-{args.preset.upper()}"
    else:
        ratio = args.ratio or "95:5"
        spec = WorkloadSpec.read_update(
            ratio, n_objects=args.objects, n_requests=args.requests,
            value_size=args.value_size, seed=args.seed,
        )
        requests = generate_requests(spec)
        label = f"r:u={ratio}"
    for key in load_keys(spec):
        res = store.write(key)
        store.cluster.clock.advance(res.latency_s)
    result = run_requests(store, requests, spec)
    rows = []
    for op in ("read", "update", "write", "delete"):
        if result.op_count(op):
            rows.append([
                op,
                result.op_count(op),
                f"{result.mean_latency_us(op):.1f}",
                f"{result.median_latency_us(op):.1f}",
                f"{result.p95_latency_us(op):.1f}",
            ])
    out(format_table(
        ["op", "count", "mean us", "median us", "p95 us"], rows,
        title=f"{args.store} ({k},{r}) under {label}",
    ))
    out(f"memory: {result.memory_bytes} B logical; "
        f"throughput ~{result.throughput_ops_s / 1e3:.1f} Kops/s; "
        f"log-disk IOs: {result.disk_io_count}")


def cmd_profile(args, out) -> None:
    from repro.bench.profile import PROFILE_EXPERIMENTS, run_profile, write_profile

    experiments = (
        list(PROFILE_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    doc = run_profile(
        experiments,
        n_objects=args.objects,
        n_requests=args.requests,
        seed=args.seed,
    )
    for exp, stores in doc["experiments"].items():
        for store, snap in sorted(stores.items()):
            ops = snap.get("ops")
            if not ops:
                continue
            rows = [
                [op, s["count"], s["mean_us"], s["p50_us"], s["p99_us"]]
                for op, s in ops.items()
                if s.get("count")
            ]
            out(format_table(
                ["op", "count", "mean us", "p50 us", "p99 us"], rows,
                title=f"{exp} / {store}",
            ))
            for op, phases in snap.get("phases", {}).items():
                parts = "  ".join(f"{k}={v:.1f}us" for k, v in phases.items())
                out(f"  {op}: {parts}")
    path = write_profile(doc, args.out)
    out(f"perf snapshot written to {path}")


def cmd_load(args, out) -> None:
    """Engine load curves; byte-deterministic JSON with --out."""
    from repro.engine.load import load_json, render_load, run_load

    try:
        concurrencies = tuple(
            int(x) for x in str(args.concurrency).split(",") if x.strip()
        )
    except ValueError:
        raise SystemExit(
            f"--concurrency must be comma-separated ints, got {args.concurrency!r}"
        ) from None
    if not concurrencies or any(c < 1 for c in concurrencies):
        raise SystemExit(f"--concurrency needs values >= 1, got {args.concurrency!r}")
    k, r = args.code
    doc = run_load(
        store_name=args.store,
        scheme=args.scheme,
        k=k,
        r=r,
        value_size=args.value_size,
        ratio=args.ratio,
        n_objects=args.objects,
        n_requests=args.requests,
        seed=args.seed,
        concurrencies=concurrencies,
        think_s=args.think_us * 1e-6,
        window=args.window if args.window > 0 else None,
        queue_cap=args.queue_cap,
        expected_faults=args.faults if args.chaos else 0.0,
    )
    out(render_load(doc))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(load_json(doc))
        out(f"load curve written to {args.out}")


def cmd_watch(args, out) -> None:
    """One engine point with sim-time telemetry as strip charts (or JSON)."""
    from repro.engine.load import render_watch, run_watch, watch_json
    from repro.obs.export import (
        timeseries_prometheus,
        write_timeseries_csv,
        write_timeseries_jsonl,
    )

    k, r = args.code
    doc = run_watch(
        store_name=args.store,
        scheme=args.scheme,
        k=k,
        r=r,
        value_size=args.value_size,
        ratio=args.ratio,
        n_objects=args.objects,
        n_requests=args.requests,
        seed=args.seed,
        concurrency=args.concurrency,
        think_s=args.think_us * 1e-6,
        window=args.window if args.window > 0 else None,
        queue_cap=args.queue_cap,
        expected_faults=args.faults if args.chaos else 0.0,
        samples=args.samples,
        slo_factor=args.slo_factor,
    )
    if args.json:
        out(watch_json(doc).rstrip("\n"))
    else:
        out(render_watch(doc, width=args.width, series=args.series or None))
    telemetry = doc["point"].get("telemetry", {})
    if args.prometheus:
        out(timeseries_prometheus(telemetry).rstrip("\n"))
    if args.csv_out:
        write_timeseries_csv(telemetry, args.csv_out)
        out(f"telemetry CSV written to {args.csv_out}")
    if args.jsonl_out:
        write_timeseries_jsonl(telemetry, args.jsonl_out)
        out(f"telemetry JSONL written to {args.jsonl_out}")
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(watch_json(doc))
        out(f"watch document written to {args.out}")


def cmd_chaos(args, out) -> None:
    from repro.chaos import run_chaos

    k, r = args.code
    config = StoreConfig(k=k, r=r, value_size=args.value_size, scheme=args.scheme)
    store = make_store(args.store, config)
    spec = WorkloadSpec.read_update(
        args.ratio, n_objects=args.objects, n_requests=args.requests,
        value_size=args.value_size, seed=args.seed,
    )
    report = run_chaos(store, spec, expected_faults=args.faults)
    out(report.summary())
    if args.timeline:
        out("timeline:")
        for t, text in report.timeline:
            out(f"  {t * 1e3:9.3f} ms  {text}")
    if args.out:
        import json
        from pathlib import Path

        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        out(f"report saved to {args.out}")
    if report.violations:
        raise SystemExit(1)


def cmd_heal(args, out) -> None:
    """Run both arms of the resilience experiment; exit 1 unless the control
    plane strictly improves MTTR and availability with clean invariants."""
    from repro.heal import experiment_ok, run_heal_experiment

    k, r = args.code
    doc = run_heal_experiment(
        store_name=args.store,
        scheme=args.scheme,
        k=k,
        r=r,
        value_size=args.value_size,
        ratio=args.ratio,
        n_objects=args.objects,
        n_requests=args.requests,
        seed=args.seed,
        expected_faults=args.faults,
    )
    rows = []
    for arm in ("disabled", "enabled"):
        s = doc[arm]
        rows.append([
            arm,
            f"{s['mttr_ms']:.3f}",
            f"{s['availability_pct']:.4f}",
            s["violations"],
            s["ops_failed"],
            s["degraded_reads"],
        ])
    out(format_table(
        ["control plane", "MTTR ms", "avail %", "violations", "failed ops",
         "degraded"],
        rows,
        title=f"{args.store} ({k},{r}) closed-loop resilience, seed {args.seed}",
    ))
    heal = doc["heal"]
    out(f"plane: {len(heal['incidents'])} incidents "
        f"({heal['incidents_suppressed']} suppressed), "
        f"{heal['actions_executed']}/{heal['actions_proposed']} actions executed, "
        f"{heal['actions_deferred']} deferrals, {heal['rollbacks']} rollbacks, "
        f"{heal['escalations']} escalations")
    out(f"MTTR improvement: {doc['mttr_improvement_ms']:.3f} ms; "
        f"availability gain: {doc['availability_gain_pct']:.4f} pp")
    if args.report:
        out(format_table(
            ["seq", "action", "node", "incident", "status", "pre ok", "post ok"],
            [[e["action"]["seq"], e["action"]["kind"], e["action"]["node"],
              e["action"]["incident"], e["result"].get("status", "?"),
              not e["pre"]["violations"], not e["new_violations"]]
             for e in heal["executed"]],
            title="executed actions (verification-bracketed)",
        ))
        for inc in heal["incidents"]:
            state = "resolved" if inc["resolved"] else "OPEN"
            out(f"  incident {inc['seq']}: {inc['kind']} on {inc['node']} "
                f"@ {inc['detected_s'] * 1e3:.3f} ms [{state}]")
    if args.out:
        import json
        from pathlib import Path

        doc.pop("reports", None)
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        out(f"experiment saved to {args.out}")
    problems = experiment_ok(doc)
    for p in problems:
        out(f"FAIL: {p}")
    if problems:
        raise SystemExit(1)


def cmd_inspect(args, out) -> None:
    """State dump after a run: nodes, stripes, journal tail, exporter text."""
    from repro.analysis.timeline import event_timeline
    from repro.bench.runner import load_store
    from repro.obs.export import prometheus_text, write_journal

    k, r = args.code
    config = StoreConfig(k=k, r=r, value_size=args.value_size, scheme=args.scheme)
    store = make_store(args.store, config)
    spec = WorkloadSpec.read_update(
        args.ratio, n_objects=args.objects, n_requests=args.requests,
        value_size=args.value_size, seed=args.seed,
    )
    attribution: list[dict] = []
    if args.chaos:
        from repro.chaos import run_chaos

        report = run_chaos(store, spec, expected_faults=args.faults)
        attribution = report.fault_attribution
        out(report.summary())
    else:
        load_store(store, spec)
        run_requests(store, generate_requests(spec), spec, profile=True)
    cluster = store.cluster
    journal = cluster.journal
    now = cluster.clock.now

    rows = []
    for nid in cluster.dram_ids():
        node = cluster.dram_nodes[nid]
        rows.append([
            nid, "dram", "up" if node.alive else "DOWN",
            f"{node.logical_bytes} B",
            f"downtime {cluster.downtime_s(nid) * 1e3:.2f}ms",
        ])
    for nid in cluster.log_ids():
        node = cluster.log_nodes[nid]
        detail = (
            f"buffer {len(node.buffer)} rec/{node.buffer.logical_bytes} B, "
            f"{node.scheme.flushes} flushes"
        )
        staging = getattr(node.scheme, "staging_bytes", None)
        if staging is not None:
            detail += f", staging {staging} B"
        if node.needs_recovery:
            detail += ", STALE"
        rows.append([
            nid, f"log/{node.scheme.name}", "up" if node.alive else "DOWN",
            f"{node.scheme.disk_logical_bytes} B disk", detail,
        ])
    out(format_table(["node", "kind", "state", "bytes", "detail"], rows,
                     title=f"{store.name} cluster @ t={now * 1e3:.3f}ms"))

    index = getattr(store, "stripe_index", None)
    if index is not None and len(index):
        sids = list(index.stripe_ids())
        out(f"stripes: {len(sids)} sealed "
            f"(ids {min(sids)}..{max(sids)}), k={k} r={r}")
        if args.stripe is not None:
            rec = index.get(args.stripe)
            out(format_table(
                ["chunk", "node", "keys"],
                [[i, nid, len(rec.chunk_keys[i]) if i < k else "-"]
                 for i, nid in enumerate(rec.chunk_nodes)],
                title=f"stripe {args.stripe} placement",
            ))

    if args.tail > 0:
        total = sum(journal.counts.values())
        out(f"journal: {total} events emitted, {len(journal)} retained, "
            f"{journal.dropped} dropped (capacity {journal.capacity})")
        for ev in journal.tail(args.tail):
            attrs = ", ".join(f"{k2}={v}" for k2, v in sorted(ev.attrs.items()))
            out(f"  {ev.t_s * 1e3:10.3f} ms  {ev.kind:13s} {attrs}")

    if args.timeline:
        out(event_timeline(journal.to_dicts()))

    if attribution:
        out(format_table(
            ["fault", "node", "window ms", "ops", "mean us", "base us", "shift"],
            [[row["kind"], row["node"],
              f"{row['start_s'] * 1e3:.2f}.."
              + (f"{row['end_s'] * 1e3:.2f}" if row["end_s"] is not None else "inf"),
              row["ops_in_window"], row["mean_in_us"], row["mean_baseline_us"],
              f"{row['shift_pct']:+.1f}%"]
             for row in attribution],
            title="fault-window latency attribution",
        ))

    if args.prometheus:
        out(prometheus_text(store.metrics, journal=journal))

    if args.journal_out:
        write_journal(journal, args.journal_out)
        out(f"journal written to {args.journal_out}")


def cmd_lint(args, out) -> None:
    """Run the simlint determinism/hygiene pass; exit 1 on findings."""
    from pathlib import Path

    from repro.devtools.simlint import RULE_DOCS, run_lint

    if args.rules:
        for rule in sorted(RULE_DOCS):
            out(f"{rule}  {RULE_DOCS[rule]}")
        return
    root = Path(args.root) if args.root else Path.cwd()
    code = run_lint(
        paths=args.paths or None,
        root=root,
        fmt=args.format,
        baseline_path=Path(args.baseline) if args.baseline else None,
        update_baseline=args.update_baseline,
        check_baseline=args.check_baseline,
        wallclock_allow=tuple(args.allow_wallclock),
        out=out,
    )
    if code:
        raise SystemExit(code)


def cmd_sanitize(args, out) -> None:
    """Run the simsan determinism sanitizer; exit 1 on any flagged run."""
    import json
    from pathlib import Path

    from repro.devtools.simsan import runner

    slices = tuple(s for s in args.slices.split(",") if s)
    if args.fixtures_only:
        slices = ()
    kwargs = {}
    if args.shuffle_seed is not None:
        kwargs["shuffle_seed"] = args.shuffle_seed
    report = runner.run_sanitize(
        slices=slices,
        fixtures=tuple(args.fixture),
        n_objects=args.objects,
        n_requests=args.requests,
        seed=args.seed,
        **kwargs,
    )
    text = runner.render_json(report) if args.json else runner.render_text(report)
    out(text.rstrip("\n"))
    if args.out:
        Path(args.out).write_text(runner.render_json(report))
    if not report["ok"]:
        raise SystemExit(1)


def cmd_compare(args, out) -> None:
    import json
    from pathlib import Path

    from repro.bench.compare import compare_profiles, render_verdict

    baseline = json.loads(Path(args.baseline).read_text())
    candidate = json.loads(Path(args.candidate).read_text())
    verdict = compare_profiles(baseline, candidate, experiments=args.experiments)
    out(render_verdict(verdict))
    if args.out:
        Path(args.out).write_text(json.dumps(verdict, indent=2, sort_keys=True) + "\n")
    if verdict["status"] != "pass":
        raise SystemExit(1)


def cmd_report(args, out) -> None:
    """The artifact-evaluation flow in one command: every table and figure
    at the chosen scale, each section appended to REPORT.txt and its raw
    rows saved as JSON next to it."""
    from pathlib import Path

    outdir = Path(args.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    sections: list[str] = []
    collect = sections.append

    def section(title: str, handler, ns) -> None:
        collect(f"\n{'=' * 70}\n{title}\n{'=' * 70}")
        handler(ns, collect)

    base = dict(objects=args.objects, requests=args.requests, seed=args.seed)
    ns = argparse.Namespace(**base, code=(6, 3), ratio="50:50", out=None)
    section("Table 2 (MTTDL)", cmd_table2, ns)
    section("Observation 1 (Figure 3)", cmd_observation1, ns)
    section("Observation 2 (Table 1)", cmd_observation2, ns)
    for name, title in [
        ("exp1", "Experiment 1 (Figure 10)"),
        ("exp2", "Experiment 2 (Figure 11)"),
        ("exp3", "Experiment 3 (Figure 12)"),
        ("exp4", "Experiment 4 (Figure 13)"),
        ("exp5", "Experiment 5 (Figure 14 a-b)"),
        ("exp6", "Experiment 6 (Figure 14 c-d)"),
        ("exp7", "Experiment 7 (Figure 15)"),
    ]:
        ns = argparse.Namespace(
            command=name, **base, out=str(outdir / f"{name}.json")
        )
        section(title, cmd_experiment, ns)
    ns = argparse.Namespace(**base, out=None)
    section("Figure 16 + Table 3", cmd_tradeoff, ns)

    report_path = outdir / "REPORT.txt"
    report_path.write_text("\n".join(str(s) for s in sections) + "\n")
    out(f"report written to {report_path} "
        f"({len(list(outdir.glob('*.json')))} row files alongside)")


def main(argv: list[str] | None = None, out=print) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "table2": cmd_table2,
        "observation1": cmd_observation1,
        "observation2": cmd_observation2,
        "tradeoff": cmd_tradeoff,
        "report": cmd_report,
        "run": cmd_run,
        "load": cmd_load,
        "watch": cmd_watch,
        "profile": cmd_profile,
        "chaos": cmd_chaos,
        "heal": cmd_heal,
        "inspect": cmd_inspect,
        "compare": cmd_compare,
        "lint": cmd_lint,
        "sanitize": cmd_sanitize,
    }
    handler = handlers.get(args.command, cmd_experiment)
    handler(args, out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
