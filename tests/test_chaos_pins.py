"""The chaos harness's observable output, pinned.

``tests/test_sim_digest_pins.py`` reaches the chaos harness only through the
benchmark's control-plane workload at one scale.  This file pins the
harness's own reports: for each run below it pins
``ChaosReport.fingerprint()`` and the sha256 of
``json.dumps(report.to_dict(), indent=2)`` -- the bytes ``chaos --out``
writes.

* ``make_scenario`` + ``run_chaos(expected_faults=4.0,
  control_plane=ControlPlane())`` at seeds 42 and 7, 200 objects / 200
  requests: the path ``repro chaos``, ``inspect --chaos`` and simsan's chaos
  slice take;
* one hand-built :class:`ChaosRun` on absolute post-load times crossing every
  fault branch -- DRAM crash -> repair, log crash, a second crash of the
  same log node, log stall at exactly a slowdown's ending time (the
  faults-first tie rule), log blip, log partition -> recover once healed,
  DRAM blip and partition, and one fault past the horizon -- with a control
  plane, open loop (no plane: the second log crash finds the node already
  down), and with a plane plus a telemetry sampler (+ SLO) riding along;
* both arms of ``run_heal_experiment`` at 200 / 200.

A moved pin means the chaos layer's observable output moved: either the
change is wrong or it is a deliberate model change, in which case
regenerate the pin in the same commit and say which leaves moved.
"""

import hashlib
import json

import pytest

from repro.bench.runner import load_store, make_scenario
from repro.chaos import ChaosRun, FaultEvent, FaultKind, FaultSchedule, run_chaos
from repro.heal import ControlPlane, run_heal_experiment
from repro.obs.timeseries import SLOTracker, TelemetrySampler

N = 200


def _pin(report) -> tuple[str, str]:
    blob = json.dumps(report.to_dict(), indent=2).encode()
    return report.fingerprint(), hashlib.sha256(blob).hexdigest()[:16]


RUN_CHAOS_PINS = {
    42: ("be5b1e689fdd9b92", "83aef6ea15d027c9"),
    7: ("b279962c3cce1ee7", "a561ba357ae25351"),
}


@pytest.mark.parametrize("seed", sorted(RUN_CHAOS_PINS))
def test_run_chaos_report_matches_the_pin(seed):
    store, spec = make_scenario(n_objects=N, n_requests=N, seed=seed)
    report = run_chaos(store, spec, expected_faults=4.0, control_plane=ControlPlane())
    assert _pin(report) == RUN_CHAOS_PINS[seed]


def _drill(start: float) -> FaultSchedule:
    """Every fault branch of the harness, on absolute times after the load."""
    ms = 1e-3
    slow = FaultEvent(start + 10 * ms, FaultKind.SLOW, "dram1",
                      duration_s=6 * ms, magnitude=8.0)
    return FaultSchedule([
        FaultEvent(start + 2 * ms, FaultKind.CRASH, "dram0"),
        FaultEvent(start + 4 * ms, FaultKind.CRASH, "log0"),
        FaultEvent(start + 6 * ms, FaultKind.CRASH, "log0"),  # still down open loop
        slow,
        # fires at exactly the slowdown's ending: faults fire first on ties
        FaultEvent(slow.end_s, FaultKind.STALL, "log1", duration_s=4 * ms),
        FaultEvent(start + 22 * ms, FaultKind.BLIP, "log1", duration_s=3 * ms),
        FaultEvent(start + 30 * ms, FaultKind.PARTITION, "log0", duration_s=10 * ms),
        FaultEvent(start + 45 * ms, FaultKind.BLIP, "dram2", duration_s=2 * ms),
        FaultEvent(start + 50 * ms, FaultKind.PARTITION, "dram3", duration_s=3 * ms),
        FaultEvent(start + 1.0, FaultKind.CRASH, "dram4"),  # past the horizon
    ])


def _drill_run(plane=True, telemetry=False):
    store, spec = make_scenario(n_objects=N, n_requests=N, seed=42)
    load_store(store, spec)
    sampler = None
    if telemetry:
        cluster = store.cluster
        sampler = TelemetrySampler(
            interval_s=5e-4,
            journal=cluster.journal,
            counters=cluster.counters,
            slo=SLOTracker(400.0, journal=cluster.journal, counters=cluster.counters),
        )
    schedule = _drill(store.cluster.clock.now)
    return ChaosRun(
        store, spec, schedule,
        control_plane=ControlPlane() if plane else None,
        telemetry=sampler,
    ).execute()


DRILL_PINS = {
    "plane": ("a28dff212981288b", "00fcfd3f7c7d211d"),
    "open_loop": ("6b21948999929d96", "f52dc1bbd0f5838e"),
    "telemetry": ("ac55cbe958e01e35", "cee553210e0df030"),
}


@pytest.mark.parametrize("variant", sorted(DRILL_PINS))
def test_hand_built_drill_matches_the_pin(variant):
    report = _drill_run(
        plane=variant != "open_loop", telemetry=variant == "telemetry"
    )
    assert _pin(report) == DRILL_PINS[variant]


def test_hand_built_drill_crosses_every_branch():
    """What the drill pin stands for, spelled out."""
    report = _drill_run()
    assert report.faults_scheduled == 10 and report.faults_unfired == 1
    assert report.faults_fired == {
        "blip": 2, "crash": 3, "partition": 2, "slow": 1, "stall": 1,
    }
    done = [
        (rec["action"]["kind"], rec["action"]["node"])
        for rec in report.heal["executed"]
        if rec["result"]["status"] == "done"
    ]
    assert [n for kind, n in done if kind == "repair_node"] == ["dram0"]
    # both log0 crashes, the log1 blip, and the missed deltas of the log0
    # partition, rebuilt once the link healed
    assert [n for kind, n in done if kind == "recover_log"] == [
        "log0", "log0", "log1", "log0",
    ]
    # the log1 stall's scheme_switch finds log1 blipped and resolves noop at
    # once instead of deferring ahead of log1's recover_log (per-node FIFO)
    assert report.downtime_s["log1"] <= 3e-3
    kinds = [(e["kind"], e["attrs"].get("kind")) for e in report.events]
    stall = kinds.index(("fault_inject", "stall"))
    assert kinds[stall + 1] == ("fault_heal", "slow")  # the tie, faults first
    assert report.violations == 0
    # open loop nothing is repaired, so the second log0 crash finds it down
    open_loop = _drill_run(plane=False)
    assert "crash log0 (already down)" in [text for _, text in open_loop.timeline]
    assert open_loop.heal == {}


HEAL_PINS = {
    "disabled": ("d080fa8a60ee8cf4", "9d43dc826b330a11"),
    "enabled": ("0eaf23a85b270768", "3187feaef0469577"),
}


def test_heal_experiment_arms_match_the_pins():
    doc = run_heal_experiment(n_objects=N, n_requests=N)
    assert {arm: _pin(doc["reports"][arm]) for arm in HEAL_PINS} == HEAL_PINS
