"""Command-line reproduction driver: ``python -m repro <command>``.

The verbs, grouped as DESIGN.md lists them:

* paper    -- ``exp NAME|all``: every table and figure of the paper's
  evaluation, one row of :data:`repro.bench.experiments.ARTIFACTS` each
* scenario -- ``run``, ``load``, ``watch``, ``chaos``, ``heal``, ``inspect``:
  one store under one workload (:func:`repro.bench.runner.make_scenario`)
* gates    -- ``profile``
* devtools -- ``lint``, ``sanitize``

Every command prints paper-style plain-text tables; scales are configurable
with ``--objects/--requests``.  Options shared between verbs are declared
once, in the parent parsers below, and validated there.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import format_table
from repro.analysis.paper_check import render_checks
from repro.analysis.timeline import event_timeline
from repro.bench import profile
from repro.bench import experiments as exps
from repro.bench.runner import load_store, make_scenario, run_requests
from repro.chaos import run_chaos
from repro.core.config import StoreConfig
from repro.devtools.simlint import RULE_DOCS, run_lint
from repro.devtools.simsan import runner as simsan
from repro.engine import load as engine_load
from repro.heal import ControlPlane
from repro.heal import experiment as heal_experiment
from repro.obs import export
from repro.workloads import (
    PRESETS,
    generate_preset_requests,
    generate_requests,
    preset_spec,
)

# ------------------------------------------------------------ argument types


def _ints(text: str, sep: str) -> tuple[int, ...]:
    """``text`` split on ``sep`` as ints (blank fields skipped); empty when
    a field is not one."""
    try:
        return tuple(int(x) for x in text.split(sep) if x.strip())
    except ValueError:
        return ()


def _parse_code(text: str) -> tuple[int, ...]:
    code = _ints(text, ",")
    if len(code) != 2:
        raise argparse.ArgumentTypeError(f"code must look like '6,3', got {text!r}")
    try:
        StoreConfig(k=code[0], r=code[1])  # the one place (k, r) bounds live
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return code


def _parse_ratio(text: str) -> str:
    """A paper-style mix such as ``80:20``; returned as typed (the stores
    and the result documents carry the string)."""
    mix = _ints(text, ":")
    if len(mix) != 2 or min(mix) < 0 or sum(mix) != 100:
        raise argparse.ArgumentTypeError(
            f"ratio must be two non-negative ints summing to 100 like '80:20', "
            f"got {text!r}"
        )
    return text


def _at_least(cast, minimum, strict: bool = False):
    """argparse type: ``cast(text)``, required to be >= (``strict``: >)
    ``minimum``."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {cast.__name__}, got {text!r}"
            ) from None
        if value < minimum or (strict and value == minimum):
            bound = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {bound} {minimum}, got {text}")
        return value

    return parse


_positive_float = _at_least(float, 0, strict=True)


def _out_dir(text: str) -> str:
    """A directory ``exp --out`` can write into (created if missing),
    checked before any artifact runs."""
    if Path(text).exists() and not Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} exists and is not a directory")
    return text


def _parse_concurrencies(text: str) -> tuple[int, ...]:
    values = _ints(text, ",")
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated ints >= 1, got {text!r}"
        )
    return values


def _parse_slices(text: str) -> tuple[str, ...]:
    slices = tuple(s for s in text.split(",") if s)
    unknown = [s for s in slices if s not in simsan.DEFAULT_SLICES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown slice(s) {', '.join(unknown)}; "
            f"choose from {', '.join(simsan.DEFAULT_SLICES)}"
        )
    return slices


# ------------------------------------------------------------ parent parsers
#
# Each call builds a *fresh* parent: argparse hands a parent's action objects
# to every child by reference, so a per-verb default must come from its own
# parent -- changing it on a shared one would change it for every verb.


def _scale_options(objects: int | None = 1500,
                   requests: int | None = 1500) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--objects", type=_at_least(int, 1), default=objects)
    p.add_argument("--requests", type=_at_least(int, 0), default=requests)
    p.add_argument("--seed", type=_at_least(int, 0), default=42)
    return p


def _out_option(
    help: str = "also write the document to this path",
    default: str | None = None,
) -> argparse.ArgumentParser:
    """``--out``, for the verbs that write a document (only those: a verb
    without this parent rejects the flag instead of ignoring it)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--out", default=default, help=help)
    return p


def _workload_options(
    ratio: str | None = "50:50", preset: bool = False
) -> argparse.ArgumentParser:
    """Which store, over which code, serving which mix.  With ``preset`` the
    mix may instead be a YCSB preset (``--ratio`` and ``--preset`` exclude
    each other)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--store", default="logecmem",
                   choices=["vanilla", "replication", "ipmem", "fsmem", "logecmem"])
    p.add_argument("--code", type=_parse_code, default=(6, 3))
    p.add_argument("--scheme", default="plm", choices=exps.SCHEMES)
    p.add_argument("--value-size", type=_at_least(int, 1), default=4096)
    mix = p.add_mutually_exclusive_group()
    mix.add_argument("--ratio", type=_parse_ratio, default=ratio,
                     help="read:update ratio, e.g. 80:20")
    if preset:
        mix.add_argument("--preset", type=str.upper, choices=sorted(PRESETS),
                         default=None, help="YCSB preset A-F")
    return p


def _engine_options(faults: float) -> argparse.ArgumentParser:
    """The concurrent engine's knobs (``load`` and ``watch``)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--think-us", type=_at_least(float, 0), default=0.0,
                   help="per-client think time between ops (microseconds)")
    p.add_argument("--window", type=_at_least(int, 0), default=0,
                   help="admission window (in-flight cap at the proxy; "
                   "0 = unbounded)")
    p.add_argument("--queue-cap", type=_at_least(int, 0), default=128,
                   help="admission overflow queue capacity (beyond it, "
                   "deterministic reject)")
    p.add_argument("--chaos", action="store_true",
                   help="rerun under a seeded fault schedule and attribute "
                   "latency to (or shade) the fault windows")
    p.add_argument("--faults", type=_positive_float, default=faults,
                   help="expected fault arrivals per point when --chaos is set")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LogECMem (SC'21) reproduction driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, handler, help: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(handler=handler)
        return p

    p = verb("exp", cmd_exp,
             "regenerate paper artifacts: each table, then its checks (exit 1 "
             "on a failed check); --objects/--requests override every "
             "artifact's default scale", _scale_options(None, None))
    p.add_argument("name", choices=[*exps.ARTIFACTS, "all"],
                   help="which artifact ('all' = every one, in table order)")
    p.add_argument("--out", type=_out_dir,
                   help="directory for <name>.json row files and REPORT.txt")

    verb("run", cmd_run, "run one store under one workload",
         _workload_options(ratio=None, preset=True), _scale_options())

    p = verb(
        "profile", cmd_profile,
        "span-traced per-phase profile; writes a deterministic perf "
        "snapshot (BENCH_PR3.json)",
        _scale_options(600, 600),
        _out_option("perf-snapshot path (default: BENCH_PR3.json)", default="BENCH_PR3.json"),
    )
    p.add_argument(
        "experiment",
        choices=[*profile.PROFILE_EXPERIMENTS, "all"],
        help="which profile slice to run ('all' = every slice)",
    )

    p = verb(
        "load", cmd_load,
        "concurrent-engine load curves: throughput vs latency across "
        "closed-loop client concurrencies (optionally under chaos)",
        _workload_options(), _engine_options(faults=4.0), _scale_options(), _out_option(),
    )
    p.add_argument("--concurrency", type=_parse_concurrencies, default="1,4,16,64",
                   help="comma-separated closed-loop client counts")

    p = verb(
        "watch", cmd_watch,
        "sim-time telemetry view: one engine point rendered as ASCII "
        "strip charts with SLO burn verdict and chaos windows marked",
        _workload_options(), _engine_options(faults=2.0), _scale_options(), _out_option(),
    )
    p.add_argument("--concurrency", type=_at_least(int, 1), default=16,
                   help="closed-loop client count for the watched point")
    p.add_argument("--samples", type=_at_least(int, 1), default=48,
                   help="telemetry ticks across the run")
    p.add_argument("--slo-factor", type=_positive_float, default=1.5,
                   help="SLO p99 target as a multiple of the clean run's p99")
    p.add_argument("--width", type=_at_least(int, 1), default=60,
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

    p = verb(
        "chaos", cmd_chaos,
        "workload under a seeded fault schedule + invariant sweep",
        _workload_options(), _scale_options(), _out_option(),
    )
    p.add_argument("--faults", type=_positive_float, default=4.0,
                   help="expected fault arrivals over the run (Poisson)")
    p.add_argument("--timeline", action="store_true",
                   help="also print the full fault/recovery timeline")

    p = verb(
        "heal", cmd_heal,
        "closed-loop resilience experiment: the same seeded chaos run "
        "with and without the self-healing control plane",
        _workload_options(), _scale_options(), _out_option(),
    )
    p.add_argument("--faults", type=_positive_float, default=6.0,
                   help="expected fault arrivals over the run (Poisson)")
    p.add_argument("--report", action="store_true",
                   help="print the full MTTR/availability table and every "
                   "executed action")

    p = verb(
        "inspect", cmd_inspect,
        "run a workload, then dump node/stripe/log state, the flight-"
        "recorder journal, and optional exporter output",
        _workload_options(), _scale_options(),
    )
    p.add_argument("--chaos", action="store_true",
                   help="run under a seeded fault schedule (enables "
                   "fault-window attribution)")
    p.add_argument("--faults", type=_positive_float, default=4.0,
                   help="expected fault arrivals when --chaos is set")
    p.add_argument("--tail", type=_at_least(int, 0), default=20,
                   help="journal events to print (0 disables)")
    p.add_argument("--timeline", action="store_true",
                   help="render the ASCII event timeline")
    p.add_argument("--stripe", type=int, default=None,
                   help="dump one stripe's placement in detail")
    p.add_argument("--prometheus", action="store_true",
                   help="print the Prometheus text exposition")
    p.add_argument("--journal-out", default=None,
                   help="write the full journal as JSONL to this path")

    p = verb(
        "lint", cmd_lint,
        "simlint: AST-based determinism & sim-hygiene analysis "
        "(SIM001-SIM009) over src/ and tests/",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: src tests)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="finding output format (both byte-deterministic)")
    p.add_argument("--root", default=None,
                   help="repo root for relative paths/registries (default: cwd)")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalogue and exit")

    p = verb(
        "sanitize", cmd_sanitize,
        "simsan: re-run engine/chaos/heal slices under permuted "
        "event tie-breaking and diff state fingerprints",
        _scale_options(200, 200), _out_option("also write the JSON report to this path"),
    )
    p.add_argument("--slices", type=_parse_slices, default=",".join(simsan.DEFAULT_SLICES),
                   help=f"comma-separated slices to run ({', '.join(simsan.DEFAULT_SLICES)})")
    p.add_argument("--fixture", action="append", default=[], metavar="FILE",
                   help="also run a scenario() fixture file under the "
                   "sanitizer (repeatable)")
    p.add_argument("--fixtures-only", action="store_true",
                   help="skip the built-in slices (only run --fixture files)")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as canonical JSON")
    p.add_argument("--shuffle-seed", type=int, default=simsan.DEFAULT_SHUFFLE_SEED,
                   help="seed for the shuffled tie-break mode")
    return parser


# ------------------------------------------------------------------ helpers


def _scale(args) -> dict:
    """The ``_scale_options`` values as every driver's scale keywords."""
    return dict(n_objects=args.objects, n_requests=args.requests, seed=args.seed)


def _scenario(args) -> dict:
    """The nine parameters of one run, keyed as ``make_scenario``,
    ``run_load``, ``run_watch`` and ``run_heal_experiment`` spell them."""
    k, r = args.code
    return dict(store_name=args.store, scheme=args.scheme, k=k, r=r,
                value_size=args.value_size, ratio=args.ratio, **_scale(args))


def _engine(args) -> dict:
    """The ``_engine_options`` values as ``run_load``/``run_watch`` keywords."""
    return dict(
        think_s=args.think_us * 1e-6,
        window=args.window if args.window > 0 else None,
        queue_cap=args.queue_cap,
        expected_faults=args.faults if args.chaos else 0.0,
    )


def _write(path: str | None, text: str, out, note: str | None = None) -> None:
    """The one ``--out`` writer: ``text`` to ``path`` when one was given,
    then the verb's confirmation line."""
    if path:
        Path(path).write_text(text)
        if note:
            out(f"{note} {path}")


def cmd_exp(args, out) -> None:
    """Each artifact's tables, then its check table; ``--out`` saves the rows
    and everything printed.  Exit 1 when any check fails."""
    names = list(exps.ARTIFACTS) if args.name == "all" else [args.name]
    sections: list[str] = []

    def emit(text: str) -> None:
        out(text)
        sections.append(text)

    failed, claims = [], []
    for outcome in exps.run(names, args.objects, args.requests, args.seed):
        title = exps.ARTIFACTS[outcome.name].title
        emit(f"\n{'=' * 70}\n{title}\n{'=' * 70}")
        emit(outcome.text)
        emit(render_checks(outcome.checks, f"Checks: {title}"))
        failed += [f"FAIL {outcome.name}: {c.name}" for c in outcome.checks if not c.passed]
        claims += [c for c in outcome.checks if c.source]
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            doc = {"meta": {"artifact": outcome.name, **outcome.scale}, "rows": outcome.rows}
            _write(str(Path(args.out) / f"{outcome.name}.json"),
                   json.dumps(doc, indent=2, sort_keys=True), out)
    if len(names) > 1 and claims:
        emit(render_checks(claims, "Reproduction contract: headline claims"))
    for line in failed:
        emit(line)
    if args.out:
        report = Path(args.out) / "REPORT.txt"
        report.write_text("\n".join(sections) + "\n")
        out(f"report written to {report} ({len(names)} row files alongside)")
    if failed:
        raise SystemExit(1)


def cmd_run(args, out) -> None:
    k, r = args.code
    ratio = args.ratio or "95:5"
    store, spec = make_scenario(**{**_scenario(args), "ratio": ratio})
    if args.preset:
        spec = preset_spec(args.preset, value_size=args.value_size, **_scale(args))
        requests = generate_preset_requests(args.preset, spec)
        label = f"YCSB-{args.preset}"
    else:
        requests = generate_requests(spec)
        label = f"r:u={ratio}"
    load_store(store, spec)
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
    experiments = (
        list(profile.PROFILE_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    doc = profile.run_profile(experiments, **_scale(args))
    if text := profile.render_profile(doc):  # the heal/load slices have no op tables
        out(text)
    path = profile.write_profile(doc, args.out)
    out(f"perf snapshot written to {path}")


def cmd_load(args, out) -> None:
    """Engine load curves; byte-deterministic JSON with --out."""
    doc = engine_load.run_load(
        **_scenario(args), concurrencies=args.concurrency, **_engine(args)
    )
    out(engine_load.render_load(doc))
    _write(args.out, engine_load.load_json(doc), out, "load curve written to")


def cmd_watch(args, out) -> None:
    """One engine point with sim-time telemetry as strip charts (or JSON)."""
    doc = engine_load.run_watch(
        **_scenario(args), concurrency=args.concurrency, **_engine(args),
        samples=args.samples, slo_factor=args.slo_factor,
    )
    doc_json = engine_load.watch_json(doc)
    if args.json:
        out(doc_json.rstrip("\n"))
    else:
        out(engine_load.render_watch(doc, width=args.width, series=args.series or None))
    telemetry = doc["point"].get("telemetry", {})
    if args.prometheus:
        out(export.timeseries_prometheus(telemetry).rstrip("\n"))
    _write(args.csv_out, export.timeseries_csv(telemetry), out, "telemetry CSV written to")
    _write(args.jsonl_out, export.timeseries_jsonl(telemetry), out,
           "telemetry JSONL written to")
    _write(args.out, doc_json, out, "watch document written to")


def cmd_chaos(args, out) -> None:
    store, spec = make_scenario(**_scenario(args))
    report = run_chaos(store, spec, expected_faults=args.faults,
                       control_plane=ControlPlane())
    out(report.summary())
    if args.timeline:
        out("timeline:")
        for t, text in report.timeline:
            out(f"  {t * 1e3:9.3f} ms  {text}")
    _write(args.out, json.dumps(report.to_dict(), indent=2) + "\n", out,
           "report saved to")
    if report.violations:
        raise SystemExit(1)


def cmd_heal(args, out) -> None:
    """Run both arms of the resilience experiment; exit 1 unless the control
    plane strictly improves MTTR and availability with clean invariants."""
    doc = heal_experiment.run_heal_experiment(**_scenario(args), expected_faults=args.faults)
    out(heal_experiment.render_heal(doc, report=args.report))
    del doc["reports"]  # the full ChaosReports are not serialisable
    _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n", out,
           "experiment saved to")
    problems = heal_experiment.experiment_ok(doc)
    for p in problems:
        out(f"FAIL: {p}")
    if problems:
        raise SystemExit(1)


def cmd_inspect(args, out) -> None:
    """State dump after a run: nodes, stripes, journal tail, exporter text."""
    k, r = args.code
    store, spec = make_scenario(**_scenario(args))
    attribution: list[dict] = []
    if args.chaos:
        report = run_chaos(store, spec, expected_faults=args.faults,
                           control_plane=ControlPlane())
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
            if args.stripe not in index:
                print(f"repro inspect: error: argument --stripe: stripe {args.stripe} "
                      f"is not indexed (ids {min(sids)}..{max(sids)})", file=sys.stderr)
                raise SystemExit(2)
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
        out(export.prometheus_text(store.metrics, journal=journal))

    _write(args.journal_out, journal.to_jsonl(), out, "journal written to")


def cmd_lint(args, out) -> None:
    """Run the simlint determinism/hygiene pass; exit 1 on findings."""
    if args.rules:
        for rule in sorted(RULE_DOCS):
            out(f"{rule}  {RULE_DOCS[rule]}")
        return
    root = Path(args.root) if args.root else Path.cwd()
    code = run_lint(paths=args.paths or None, root=root, fmt=args.format, out=out)
    if code:
        raise SystemExit(code)


def cmd_sanitize(args, out) -> None:
    """Run the simsan determinism sanitizer; exit 1 on any flagged run."""
    report = simsan.run_sanitize(
        slices=() if args.fixtures_only else args.slices,
        fixtures=tuple(args.fixture),
        **_scale(args),
        shuffle_seed=args.shuffle_seed,
    )
    as_json = simsan.render_json(report)
    out((as_json if args.json else simsan.render_text(report)).rstrip("\n"))
    _write(args.out, as_json, out)
    if not report["ok"]:
        raise SystemExit(1)


def main(argv: list[str] | None = None, out=print) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "store", None) == "logecmem" and args.code[1] < 2:
        parser.error("argument --code: --store logecmem needs r >= 2 "
                     f"(one XOR parity + logged parities), got r={args.code[1]}")
    args.handler(args, out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
