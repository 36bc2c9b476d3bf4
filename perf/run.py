#!/usr/bin/env python3
"""Run the benchmark.

One workload, as the driver runs it (the result is the last line of stdout)::

    python3 perf/run.py --workload update_heavy --seed 42 --seconds 10 --trace 0

Every workload, each in a fresh single-threaded child interpreter, with all
metrics printed by name and unit and an optional ledger entry::

    python3 perf/run.py --seed 42 [--traced] [--out perf/out/<label>.json]

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that yields the per-layer metrics.  Names, units
and bounds are in perf/registry.py; method and reading guide in
perf/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

_T_START = perf_counter()

# one thread: BLAS/OpenMP pools would add run-to-run variance and a second
# core's worth of noise to a benchmark of single-threaded Python
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.engine.core import exact_quantile  # noqa: E402

from perf.registry import END_TO_END, RUN_SECONDS, SLICES, TRACE_METRICS, WORKLOADS  # noqa: E402
from perf.verify import CheckedStore, Tally  # noqa: E402
from perf.workloads import WORKLOAD_CLASSES  # noqa: E402

_IMPORT_S = perf_counter() - _T_START

#: repeats of the timed section: at least MIN, then until ``--seconds`` of
#: timed wall have accumulated, never more than MAX
MIN_REPEATS = 7
MAX_REPEATS = 15

UNITS = {m["name"]: m["unit"] for m in END_TO_END}
UNITS.update({name: unit for name, (unit, _, _) in SLICES.items()})
UNITS.update({name: unit for name, (unit, _) in TRACE_METRICS.items()})


class BenchmarkError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def sim_digest(sim: dict, keys=None) -> str:
    """Hash of the simulated-clock results (exact float reprs)."""
    picked = {k: sim[k] for k in (sorted(sim) if keys is None else sorted(keys))}
    return hashlib.sha256(json.dumps(picked, sort_keys=True).encode()).hexdigest()[:16]


def timed_call(fn, *args, **kwargs):
    gc.collect()
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - t0, result


def timed_repeats(workload, seconds: float) -> dict:
    """The untraced, unchecked repeats the end-to-end host numbers come from."""
    setup_s, timed_s, digests = [], [], []
    sim = {}
    while len(timed_s) < MAX_REPEATS:
        dt_setup, state = timed_call(workload.setup)
        dt_timed, out = timed_call(workload.timed, state)
        sim = workload.sim(state, out)
        setup_s.append(dt_setup)
        timed_s.append(dt_timed)
        digests.append(sim_digest(sim))
        del state, out
        if len(timed_s) >= MIN_REPEATS and sum(timed_s) >= seconds:
            break
    if len(set(digests)) != 1:
        raise BenchmarkError(f"sim results differ across repeats: {digests}")
    return {"setup_s": setup_s, "timed_s": timed_s, "sim": sim}


def checked_pass(workload, tracer=None, plant=None) -> dict:
    """One deterministic pass through CheckedStores, then drill + invariants.

    With ``tracer`` the timed section runs under the installed outside-in
    tracer.  ``plant`` wraps each store beneath the checker (the tests plant
    a wrong-value store there to prove failures are seen).
    """
    tally = Tally()

    def wrap(store):
        return CheckedStore(plant(store) if plant else store, tally, tracer)

    dt_setup, state = timed_call(workload.setup, wrap=wrap, tally=tally)
    gc.collect()
    if tracer is not None:
        tracer.paused = False
        t0 = perf_counter()
        with tracer.section("timed"):
            out = workload.timed(state)
        dt_timed = perf_counter() - t0
        tracer.paused = True
    else:
        dt_timed, out = timed_call(workload.timed, state)
    sim = workload.sim(state, out)
    repeat_keys = sorted(sim)
    sim.update(workload.epilogue(state, out))
    return {
        "setup_s": dt_setup,
        "timed_s": dt_timed,
        "sim": sim,
        "repeat_keys": repeat_keys,
        "tally": tally,
    }


def tally_detail(tally: Tally) -> dict:
    lat = sorted(tally.op_host_s)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ops_share": tally.failed / max(1, tally.attempted),
        "reads_checked": tally.reads_checked,
        "notes": tally.notes,
        "op_us_p50": exact_quantile(lat, 0.50) * 1e6,
        "op_us_p99": exact_quantile(lat, 0.99) * 1e6,
        "op_samples": len(lat),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(workload, seconds: float) -> tuple[dict, dict]:
    repeats = timed_repeats(workload, seconds)
    checked = checked_pass(workload)
    want = sim_digest(repeats["sim"])
    got = sim_digest(checked["sim"], checked["repeat_keys"])
    if want != got:
        raise BenchmarkError(f"checked pass sim digest {got} != timed repeats {want}")
    sim = checked["sim"]
    metrics = {
        "wall_ops_per_s": workload.ops / min(repeats["timed_s"]),
        "setup_s": min(repeats["setup_s"]),
        "peak_rss_mib": peak_rss_mib(),
    }
    for m in END_TO_END:
        if m["name"].startswith("sim_"):
            metrics[m["name"]] = sim[m["name"]]
    detail = {
        "ops": workload.ops,
        "repeats": len(repeats["timed_s"]),
        "timed_s": repeats["timed_s"],
        "setup_s": repeats["setup_s"],
        "checked_timed_s": checked["timed_s"],
        "sim_digest": sim_digest(sim),
        "sim": sim,
        "checks": tally_detail(checked["tally"]),
    }
    return metrics, detail


def run_traced(workload, seconds: float) -> tuple[dict, dict]:
    # deferred: the tracer and the slices import every layer, which the
    # untraced run should not pay for in peak_rss_mib
    from perf.layers import run_slices
    from perf.trace import OutsideTracer

    untraced = checked_pass(workload)
    tracer = OutsideTracer()
    tracer.paused = True
    with tracer.installed():
        traced = checked_pass(workload, tracer=tracer)
    if sim_digest(untraced["sim"]) != sim_digest(traced["sim"]):
        raise BenchmarkError("tracing changed the simulated results")
    summary = tracer.summary(workload.ops)
    out_dir = PERF_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}.jsonl"
    tracer.write_jsonl(trace_path)
    del tracer

    metrics = run_slices(min_batch_s=seconds / 400.0)
    for layer, share in summary["self_share"].items():
        metrics[f"{layer}.self_share"] = share
    for layer, calls in summary["calls_per_kop"].items():
        if layer != "bench":
            metrics[f"{layer}.calls_per_kop"] = calls
    tally = untraced["tally"]
    tally.failed += traced["tally"].failed
    checks = tally_detail(tally)
    metrics["bench.op_us_p50"] = checks["op_us_p50"]
    metrics["bench.op_us_p99"] = checks["op_us_p99"]
    metrics["trace.overhead_share"] = traced["timed_s"] / untraced["timed_s"] - 1.0
    detail = {
        "ops": workload.ops,
        "untraced_checked_s": untraced["timed_s"],
        "traced_checked_s": traced["timed_s"],
        "sim_digest": sim_digest(untraced["sim"]),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": {k: summary[k] for k in ("spans", "dropped", "wall_s", "phases", "calls")},
        "traced_failed": traced["tally"].failed,
        "checks": checks,
    }
    return metrics, detail


def run_one(args) -> int:
    """Child / driver mode: one workload, result as the last stdout line."""
    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.scale)
    runner = run_traced if args.trace else run_end_to_end
    metrics, detail = runner(workload, args.seconds)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        scale=args.scale,
        seconds=args.seconds,
        trace=args.trace,
        import_s=_IMPORT_S,
    )
    print("detail " + json.dumps(detail, sort_keys=True))
    checks = detail["checks"]
    result = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------- all workloads


def spawn(workload: str, args, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns result + detail."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scale", str(args.scale),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"{workload} (trace={trace}) exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(
        (json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")), {}
    )
    return {"result": result, "detail": detail}


def print_metrics(workload: str, metrics: dict) -> None:
    for name, cell in metrics.items():
        print(f"{workload:22s} {name:36s} {cell['value']:>16.6g} {cell['unit']}")


def run_all(args) -> int:
    if args.out and Path(args.out).exists():
        raise BenchmarkError(f"{args.out} exists; ledger entries are never rewritten")
    ledger = {
        "label": Path(args.out).stem if args.out else None,
        "created_unix": time.time(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        entry = {"end_to_end": spawn(name, args, trace=0)}
        if args.traced:
            entry["per_layer"] = spawn(name, args, trace=1)
        ledger["workloads"][name] = entry
        for mode, run in entry.items():
            result, detail = run["result"], run["detail"]
            ok &= result["correct"]
            print(f"== {name} [{mode}] correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"sim_digest={detail.get('sim_digest')} "
                  f"repeats={detail.get('repeats', '-')}")
            print_metrics(name, result["metrics"])
            if mode == "per_layer":
                print(f"{name:22s} spans -> {detail['trace_file']} "
                      f"({detail['spans']['spans']} spans, "
                      f"{detail['checks']['op_samples']} op latency samples)")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        print(f"ledger entry written to {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="run just this one, in-process")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                    help="timed wall to accumulate per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 = the traced per-layer run")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink workload sizes (smoke tests)")
    ap.add_argument("--traced", action="store_true",
                    help="all-workloads mode: add the per-layer run of each workload")
    ap.add_argument("--out", help="all-workloads mode: write a ledger entry (JSON) here")
    args = ap.parse_args(argv)
    try:
        return run_one(args) if args.workload else run_all(args)
    except BenchmarkError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
