"""Job descriptors: store ops decomposed into per-station stage demands.

The stores cost every request analytically and lay the result out as a span
tree (:mod:`repro.obs.span`): one root per op, one child per phase, each
child carrying the phase's duration and -- for node exchanges -- the node it
talked to.  The concurrent engine needs exactly that information, but keyed
by *which shared device the phase occupies* rather than by phase name, so a
:class:`JobSpec` re-expresses an op as an ordered list of :class:`Stage`\\ s:

* ``proxy_cpu``    -- encode/decode/memcpy work serialised on the proxy CPU;
* ``proxy_nic``    -- fan-out writes whose payload bytes serialise on the
  proxy NIC (the libmemcached behaviour ``parallel_puts`` models);
* ``nic:<node>``   -- synchronous per-node GET round trips, queued at the
  target node's NIC (one server per node);
* ``delay``        -- pure latency with no shared device (client hop,
  propagation, already-acknowledged log waits): overlaps freely across
  concurrent jobs.

The decomposition is *exact* by construction: any part of the root latency
the children do not cover becomes a trailing ``delay`` stage, so a job's
total service demand equals the op's single-request latency and the C=1
engine reproduces the sequential cost model (``tests/test_engine.py`` asserts
this).  Queueing then emerges only from concurrency, never from re-costing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import apply
from repro.engine.stations import Station
from repro.obs import init_observability
from repro.obs.span import Span
from repro.workloads.ycsb import Request

#: phase names whose time is proxy-CPU occupancy
CPU_PHASES = frozenset({"encode_delta", "decode", "memcpy", "seal_stripe", "gc"})

#: fan-out write phases: payload bytes serialise on the proxy NIC
PROXY_NIC_PHASES = frozenset(
    {"ship_delta", "put_replicas", "put_object", "put_tombstone"}
)

#: synchronous GET phases served by the target node's NIC
NODE_READ_PHASES = frozenset(
    {"fetch_object", "read_old", "read_old_xor", "read_old_parities", "fetch_replica"}
)

#: residuals smaller than this are float dust, not a real phase
_RESIDUAL_EPS_S = 1e-12


@dataclass(frozen=True, slots=True)
class Stage:
    """One stop of a job: ``service_s`` seconds of demand at ``station``."""

    station: str
    service_s: float

    def __post_init__(self) -> None:
        if self.service_s < 0:
            raise ValueError(f"negative stage demand: {self}")


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One operation as the engine runs it: ordered stages + log-write load.

    ``log_bytes`` is the total parity-delta payload the op appends to log-node
    buffers (0 for reads); the engine spreads it over ``log_nodes`` and uses
    it to drive the buffer-occupancy/flush/backpressure model.
    """

    op: str
    stages: tuple[Stage, ...]
    log_bytes: int = 0
    log_nodes: tuple[str, ...] = ()

    @property
    def service_s(self) -> float:
        """Total service demand = the op's single-request latency."""
        return sum(s.service_s for s in self.stages)


@dataclass(slots=True)
class JobTrace:
    """Bookkeeping for one in-flight job instance (engine-internal)."""

    spec: JobSpec
    client: int
    issued_s: float
    admitted_s: float = 0.0
    stage_index: int = 0
    at: Station | None = None  # the Station this job occupies until its next event
    admission_wait_s: float = 0.0
    station_wait_s: float = 0.0
    backpressure_wait_s: float = 0.0


def classify_phase(span: Span) -> list[Stage]:
    """Map one span child to its stage(s).

    Multi-node read phases (``read_old_xor`` carries ``node`` and
    ``xor_node``) split their duration evenly over the nodes involved --
    the split preserves the phase total, which is all C=1 compatibility
    needs; per-node attribution only shapes where queueing happens.
    """
    name = span.name
    dur = span.duration_s
    if dur <= 0:
        return []
    if name in CPU_PHASES:
        return [Stage("proxy_cpu", dur)]
    if name in PROXY_NIC_PHASES:
        return [Stage("proxy_nic", dur)]
    if name in NODE_READ_PHASES:
        nodes = [
            str(v)
            for k, v in sorted(span.attrs.items())
            if k in ("node", "xor_node") and v is not None
        ]
        if nodes:
            share = dur / len(nodes)
            return [Stage(f"nic:{nid}", share) for nid in nodes]
        return [Stage("proxy_nic", dur)]
    # client_hop, log_ack, fetch_survivors, fetch_logged_parity, ...:
    # propagation / overlappable remote time -- no shared station
    return [Stage("delay", dur)]


def job_from_span(
    span: Span,
    op: str | None = None,
    log_bytes: int = 0,
    log_nodes: tuple[str, ...] = (),
) -> JobSpec:
    """Decompose one finished root span into a :class:`JobSpec`.

    The children become stages in order; any uncovered remainder of the root
    duration becomes a trailing ``delay`` stage so the stage total equals the
    op's reported latency exactly.
    """
    stages: list[Stage] = []
    covered = 0.0
    for child in span.children:
        for stage in classify_phase(child):
            stages.append(stage)
            covered += stage.service_s
    residual = span.duration_s - covered
    if residual > _RESIDUAL_EPS_S:
        stages.append(Stage("delay", residual))
    return JobSpec(
        op=op if op is not None else span.name,
        stages=tuple(stages),
        log_bytes=int(log_bytes),
        log_nodes=tuple(log_nodes),
    )


def derive_jobs(store, requests: list[Request]) -> list[JobSpec]:
    """Execute ``requests`` against ``store`` and capture one JobSpec per op.

    This is the measurement pass: the store's own cost model produces each
    op's span tree (and counter deltas), and the engine replays the derived
    jobs at any concurrency.  The store should already be loaded
    (:func:`repro.bench.runner.load_store`); its observability is
    re-initialised so load-phase spans do not leak into the job stream.
    """
    init_observability(store, keep_last=4)
    clock = store.cluster.clock
    counters = store.counters
    value_size = store.cfg.value_size
    log_ids = tuple(store.cluster.log_ids()) if hasattr(store.cluster, "log_ids") else ()
    jobs: list[JobSpec] = []
    for req in requests:
        deltas_before = counters["parity_deltas_sent"]
        res = apply(store, req)
        clock.advance(res.latency_s)
        n_deltas = int(counters["parity_deltas_sent"] - deltas_before)
        span = store.tracer.last
        jobs.append(
            job_from_span(
                span,
                op=req.op.value,
                log_bytes=n_deltas * value_size,
                log_nodes=log_ids if n_deltas else (),
            )
        )
    return jobs
