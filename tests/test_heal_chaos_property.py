"""Property: the control plane alone heals everything the chaos harness
injects.  The harness only applies faults; for any generated schedule of at
most r DRAM crashes or blips (blips that self-heal inside the plane's grace
and blips that outlive it) plus log-node crashes, blips and partitions --
including partitions that outlast the plane's whole deferral budget -- a run
with a :class:`ControlPlane` attached must end with every DRAM node back, no
log node stale, a clean invariant sweep, every acknowledged read having
returned the value the store last acknowledged for its key, and every fault
window the plane resolved an incident for closed by the time it did."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.timeline import fault_windows
from repro.baselines import make_store
from repro.chaos import FaultEvent, FaultKind, FaultSchedule, run_chaos
from repro.core import StoreConfig
from repro.heal import ControlPlane
from repro.heal.plane import BLIP_GRACE_S, DEFER_BACKOFF_S, MAX_DEFERS
from repro.workloads import WorkloadSpec

K, R = 6, 3
N_DRAM = K + 1  # k data nodes plus the XOR parity node
LOG_IDS = ("log0", "log1")
#: fault times are relative to the run phase, which lasts ~30 ms here
HORIZON_S = 30e-3
#: a partition this long exhausts every deferral of an action proposed at
#: detection, so only a rebuild proposed once the link heals can repair it
LONG_PARTITION_S = (MAX_DEFERS + 1) * DEFER_BACKOFF_S

times = st.floats(min_value=0.0, max_value=HORIZON_S, allow_nan=False)
durations = st.floats(min_value=1e-3, max_value=2 * LONG_PARTITION_S, allow_nan=False)
log_faults = st.tuples(
    st.sampled_from([FaultKind.CRASH, FaultKind.BLIP, FaultKind.PARTITION]),
    st.sampled_from(LOG_IDS),
    times,
    durations,
)


@st.composite
def schedules(draw):
    # at most r DRAM nodes fail, each by a crash or a blip: the tolerated budget
    failed = draw(st.lists(st.integers(0, N_DRAM - 1), max_size=R, unique=True))
    events = []
    for i in failed:
        if draw(st.booleans()):
            events.append(FaultEvent(draw(times), FaultKind.CRASH, f"dram{i}"))
        else:
            events.append(FaultEvent(draw(times), FaultKind.BLIP, f"dram{i}",
                                     duration_s=draw(durations)))
    for kind, node, at, duration in draw(st.lists(log_faults, max_size=4)):
        if kind is FaultKind.CRASH:
            events.append(FaultEvent(at, kind, node))
        else:
            events.append(FaultEvent(at, kind, node, duration_s=duration))
    return FaultSchedule(events)


def checked_reads(store) -> list[str]:
    """Wrap ``store.read`` so each returned value is compared with the
    store's oracle at that moment; returns the list mismatches land in."""
    mismatches: list[str] = []
    read = store.read

    def checked(key):
        res = read(key)
        if not np.array_equal(res.value, store.expected_value(key)):
            mismatches.append(key)
        return res

    store.read = checked
    return mismatches


@settings(max_examples=25, deadline=None)
@given(scheme=st.sampled_from(["pl", "plm"]), schedule=schedules())
@example(
    scheme="plm",
    schedule=FaultSchedule(
        [FaultEvent(2e-3, FaultKind.PARTITION, "log1", duration_s=LONG_PARTITION_S)]
    ),
)
@example(
    # outlives the grace, so the plane repairs it before the blip would end
    scheme="pl",
    schedule=FaultSchedule(
        [FaultEvent(2e-3, FaultKind.BLIP, "dram4", duration_s=10 * BLIP_GRACE_S)]
    ),
)
@example(
    # three DRAM failures at once, and log0 partitions that fire and heal
    # inside one clock step, so their windows share a timestamp
    scheme="pl",
    schedule=FaultSchedule([
        FaultEvent(0.0, FaultKind.CRASH, "dram0"),
        FaultEvent(0.0, FaultKind.BLIP, "dram1", duration_s=0.03125),
        FaultEvent(0.0, FaultKind.PARTITION, "log0", duration_s=0.0078125),
        FaultEvent(0.0027, FaultKind.CRASH, "dram4"),
        FaultEvent(0.015625, FaultKind.PARTITION, "log0", duration_s=0.00390625),
        FaultEvent(0.0234375, FaultKind.PARTITION, "log0", duration_s=0.03125),
    ]),
)
def test_the_plane_alone_heals_every_tolerated_schedule(scheme, schedule):
    store = make_store(
        "logecmem", StoreConfig(k=K, r=R, value_size=512, scheme=scheme)
    )
    spec = WorkloadSpec(
        n_objects=60, n_requests=80, seed=3, value_size=512,
        read_ratio=0.5, update_ratio=0.5,
    )
    mismatches = checked_reads(store)
    report = run_chaos(store, spec, schedule=schedule, control_plane=ControlPlane())
    cluster = store.cluster
    assert all(node.alive for node in cluster.dram_nodes.values()), report.timeline
    assert not any(
        node.needs_recovery for node in cluster.log_nodes.values()
    ), report.timeline
    assert report.violations == 0, report.invariants
    assert mismatches == []
    # every fault the plane resolved an incident for has its window closed by
    # then.  Windows and incidents both follow journal order; faults that
    # fired in one clock step share a timestamp, so pair them in that order
    assert cluster.journal.dropped == 0  # the windows see every event
    windows: dict[tuple, list] = {}
    for w in fault_windows(report.events, run_end_s=report.makespan_s):
        windows.setdefault((w.node_id, w.kind, round(w.start_s, 9)), []).append(w)
    for inc in report.heal["incidents"]:
        fault = inc["details"].get("fault")
        if fault in (None, "missed_delta"):
            continue  # not born of an injected fault
        window = windows[(inc["node"], fault, inc["details"]["at_s"])].pop(0)
        if inc["resolved"]:
            assert window.healed and round(window.end_s, 9) <= inc["resolved_s"], (inc, window)
