"""simsan runner: execute scenarios under permuted tie-breaking and diff.

Each *slice* is one self-contained scenario (engine replay, chaos run, chaos
run under the self-healing control plane).  The runner executes it once per
tie-break mode -- FIFO, reversed, seeded shuffle (``sim.events.tiebreak``) --
with a fresh :class:`~repro.devtools.simsan.runtime.Sanitizer` active, then
diffs the byte-stable state fingerprints (result JSON, counter bag, journal
kind-totals).  A component whose fingerprint differs across modes marks the
scenario order-sensitive: some handler's result depends on the order of
equal-timestamp events, which the default FIFO sequence number silently
masks.  Runtime access violations (double-acquire, negative occupancy,
leaked holds, generation hazards) are reported alongside.

The engine slice is pinned at ``concurrency=1``.  At higher concurrency the
engine is *known* order-sensitive: every client issues at t=0 and same-cost
first hops complete simultaneously, so jobs of different op types arrive at
one FIFO station in tie order and their waits swap under permutation.  That
ambiguity is physical (real servers race there too); the FIFO tie-break is
the documented canonical order, and docs/INTERNALS.md records it as the
hazard class this tool exists to surface.  At concurrency 1 -- where flush
completions, telemetry and job events still interleave asynchronously -- the
engine must be (and is) tie-robust.

Fixture files (``tests/testdata/simsan/``) are executed the same way: the
file is exec'd fresh per mode and must define ``scenario()`` returning a
JSON-serialisable document (or a ``(result, counters, journal_kinds)``
triple).  A fixture flags by diverging across modes or by tripping a runtime
check.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.devtools.simsan import runtime
from repro.devtools.simsan.fingerprint import COMPONENTS, fingerprint_state
from repro.sim import events as sim_events

#: tie-break modes every scenario runs under, in execution order
MODES = sim_events.TIEBREAK_MODES

#: slices `python -m repro sanitize` runs by default, in execution order
DEFAULT_SLICES = ("engine", "chaos", "heal")

DEFAULT_SHUFFLE_SEED = 0x51345


# --------------------------------------------------------------------- slices


def _engine_slice(n_objects: int, n_requests: int, seed: int):
    from repro.engine.core import Engine, EngineConfig
    from repro.engine.load import build_jobs

    jobs, profile, _dram, _log = build_jobs(
        n_objects=n_objects, n_requests=n_requests, seed=seed
    )
    engine = Engine(jobs, profile, EngineConfig(concurrency=1))
    result = engine.run()
    return result.to_dict(), engine.counters.as_dict(), dict(engine.journal.counts)


def _chaos_slice(
    n_objects: int, n_requests: int, seed: int, expected_faults=2.0, plane=None
):
    from repro.bench.runner import make_scenario
    from repro.chaos.harness import run_chaos

    store, spec = make_scenario(n_objects=n_objects, n_requests=n_requests, seed=seed)
    report = run_chaos(
        store, spec, expected_faults=expected_faults, control_plane=plane
    )
    return (
        report.to_dict(),
        store.counters.as_dict(),
        dict(store.cluster.journal.counts),
    )


def _heal_slice(n_objects: int, n_requests: int, seed: int):
    """The chaos slice with a control plane attached (and more faults)."""
    from repro.heal import ControlPlane

    return _chaos_slice(n_objects, n_requests, seed, expected_faults=4.0, plane=ControlPlane())


_SLICES = {
    "engine": _engine_slice,
    "chaos": _chaos_slice,
    "heal": _heal_slice,
}


# ------------------------------------------------------------------ execution


def _normalise_state(value):
    """Accept ``doc`` or ``(doc, counters, journal_kinds)`` from a builder."""
    if isinstance(value, tuple) and len(value) == 3:
        return value
    return value, {}, {}


def compare_modes(build, shuffle_seed: int = DEFAULT_SHUFFLE_SEED) -> dict:
    """Run ``build()`` once per tie-break mode under an active sanitizer and
    diff the state fingerprints; the core simsan primitive."""
    fingerprints: dict[str, dict] = {}
    sanitizers: dict[str, dict] = {}
    for mode in MODES:
        san = runtime.Sanitizer()
        with sim_events.tiebreak(mode, shuffle_seed), runtime.activate(san):
            result_doc, counters, journal_kinds = _normalise_state(build(mode))
        fingerprints[mode] = fingerprint_state(result_doc, counters, journal_kinds)
        sanitizers[mode] = san.to_dict()
    order_sensitive = [
        comp
        for comp in COMPONENTS
        if len({fingerprints[m][comp] for m in MODES}) > 1
    ]
    ok = not order_sensitive and all(sanitizers[m]["ok"] for m in MODES)
    return {
        "ok": ok,
        "order_sensitive": order_sensitive,
        "fingerprints": fingerprints,
        "sanitizer": sanitizers,
    }


def run_fixture(path: str | Path, shuffle_seed: int = DEFAULT_SHUFFLE_SEED) -> dict:
    """Execute one planted-fixture file under the sanitizer.

    The file is exec'd in a fresh namespace per mode (so module-level state
    cannot leak across modes) and must define ``scenario()``.
    """
    path = Path(path)
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")

    def build(mode: str):
        namespace = {"__name__": "simsan_fixture", "__file__": str(path)}
        exec(code, namespace)
        scenario = namespace.get("scenario")
        if not callable(scenario):
            raise ValueError(f"fixture {path} does not define scenario()")
        return scenario()

    return compare_modes(build, shuffle_seed)


def run_sanitize(
    slices: tuple[str, ...] = DEFAULT_SLICES,
    fixtures: tuple[str, ...] = (),
    n_objects: int = 200,
    n_requests: int = 200,
    seed: int = 42,
    shuffle_seed: int = DEFAULT_SHUFFLE_SEED,
) -> dict:
    """Run the requested slices and fixtures; returns the report document."""
    from repro.obs.events import EventJournal
    from repro.sim.clock import SimClock
    from repro.sim.resources import Counters

    counters = Counters()
    journal = EventJournal(SimClock(), counters, capacity=1024)

    report: dict = {
        "version": 1,
        "modes": list(MODES),
        "shuffle_seed": shuffle_seed,
        "scale": {"n_objects": n_objects, "n_requests": n_requests, "seed": seed},
        "slices": {},
        "fixtures": {},
    }

    def _note(kind: str, outcome: dict, **attrs) -> None:
        journal.emit(kind, ok=outcome["ok"], **attrs)
        counters.add("sanitize_runs")
        if outcome["order_sensitive"]:
            counters.add("sanitize_hazards", len(outcome["order_sensitive"]))
            journal.emit(
                "sanitize_hazard",
                components=",".join(outcome["order_sensitive"]),
                **attrs,
            )
        for mode in MODES:
            for violation in outcome["sanitizer"][mode]["violations"]:
                counters.add("sanitize_violations")
                journal.emit(
                    "sanitize_violation",
                    mode=mode,
                    check=violation["check"],
                    subject=violation["subject"],
                    **attrs,
                )

    for name in slices:
        if name not in _SLICES:
            raise ValueError(
                f"unknown slice {name!r}; expected one of {sorted(_SLICES)}"
            )
        builder = _SLICES[name]
        outcome = compare_modes(
            lambda mode: builder(n_objects, n_requests, seed), shuffle_seed
        )
        report["slices"][name] = outcome
        _note("sanitize_slice", outcome, slice=name)

    for fixture in fixtures:
        rel = str(fixture)
        outcome = run_fixture(fixture, shuffle_seed)
        report["fixtures"][rel] = outcome
        _note("sanitize_fixture", outcome, fixture=rel)

    outcomes = list(report["slices"].values()) + list(report["fixtures"].values())
    report["ok"] = all(o["ok"] for o in outcomes)
    report["counters"] = {
        k: v for k, v in sorted(counters.as_dict().items())
    }
    report["journal_kinds"] = dict(journal.counts)
    return report


# ------------------------------------------------------------------ rendering


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report: dict) -> str:
    """Deterministic human-readable report (stable across hash seeds)."""
    lines = [
        f"simsan: tie-break modes {', '.join(report['modes'])} "
        f"(shuffle seed {report['shuffle_seed']})"
    ]
    for section in ("slices", "fixtures"):
        for name, outcome in report[section].items():
            status = "ok" if outcome["ok"] else "ORDER-SENSITIVE/VIOLATION"
            lines.append(f"  {section[:-1]} {name}: {status}")
            for comp in COMPONENTS:
                fps = [outcome["fingerprints"][m][comp] for m in report["modes"]]
                marker = "==" if len(set(fps)) == 1 else "!="
                lines.append(f"    {comp:13s} {marker} {' '.join(fps)}")
            for mode in report["modes"]:
                for violation in outcome["sanitizer"][mode]["violations"]:
                    lines.append(
                        f"    [{mode}] {violation['check']}: "
                        f"{violation['subject']} -- {violation['detail']}"
                    )
    lines.append(f"result: {'clean' if report['ok'] else 'FLAGGED'}")
    return "\n".join(lines) + "\n"
