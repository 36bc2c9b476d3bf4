"""Seeded fault schedules: *what* breaks, *when*, for *how long*.

A :class:`FaultSchedule` is an immutable, time-ordered list of
:class:`FaultEvent`\\ s.  Schedules are data -- they can be written by hand
for targeted drills (see ``tests/test_chaos.py``) or generated from a seeded
Poisson process: :meth:`FaultSchedule.poisson` takes the per-node MTTF in
simulated seconds, and :meth:`FaultSchedule.with_expected_faults` sizes it so
about N faults land in a run's horizon (real runs simulate sub-second
horizons, so a years-scale MTTF would fire nothing).  The transient
durations a generated fault carries are module constants, as is
:data:`REPAIR_DELAY_S`, the detection delay before a crashed node is
repaired or recovered.

Five fault shapes (the transient ones carry a duration):

* ``crash``      -- permanent node loss; ends only via repair/recovery,
* ``blip``       -- transient outage, auto-restored after ``duration_s``.
  On a *log* node this is a crash-restart: the volatile delta buffer is
  lost and recovery must rebuild the parities (§3.3.2).  On a *DRAM* node
  it models a brief unavailability (process pause, switch hiccup) whose
  contents survive -- a DRAM crash-restart that loses state is a ``crash``
  followed by repair,
* ``stall``      -- log-node disk unresponsive for ``duration_s``,
* ``slow``       -- straggler: exchanges with the node take ``magnitude`` x,
* ``partition``  -- proxy<->node link down for ``duration_s``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class FaultKind(str, enum.Enum):
    CRASH = "crash"
    BLIP = "blip"
    STALL = "stall"
    SLOW = "slow"
    PARTITION = "partition"


#: how long a crashed node stays down before its repair (DRAM) or recovery
#: (log node) starts -- the chaos harness's hard-wired repair and the
#: engine's crash windows both use it
REPAIR_DELAY_S = 5e-3

#: kinds that end on their own (carry a duration_s > 0)
TRANSIENT_KINDS = (FaultKind.BLIP, FaultKind.STALL, FaultKind.SLOW, FaultKind.PARTITION)

#: default mix when a generator is not told otherwise: mostly transient
#: faults (the DXRAM observation), with the occasional permanent crash
DEFAULT_WEIGHTS = {
    FaultKind.CRASH: 0.15,
    FaultKind.BLIP: 0.35,
    FaultKind.STALL: 0.15,
    FaultKind.SLOW: 0.20,
    FaultKind.PARTITION: 0.15,
}

#: durations (and the slowdown factor) a generated fault of each kind carries
BLIP_S = 2e-3
STALL_S = 5e-3
SLOW_S = 1e-2
SLOW_FACTOR = 8.0
PARTITION_S = 5e-3


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault."""

    time_s: float
    kind: FaultKind
    node_id: str
    duration_s: float = 0.0   # transient kinds only; 0 for crash
    magnitude: float = 1.0    # slow-node latency multiplier

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time_s}")
        if self.kind in TRANSIENT_KINDS and self.duration_s <= 0:
            raise ValueError(f"{self.kind.value} fault needs duration_s > 0")
        if self.kind is FaultKind.SLOW and self.magnitude <= 1.0:
            raise ValueError(
                f"slow fault needs a magnitude > 1, got {self.magnitude}"
            )

    @property
    def end_s(self) -> float:
        return self.time_s + self.duration_s

    def describe(self) -> str:
        if self.kind is FaultKind.CRASH:
            return f"crash {self.node_id}"
        if self.kind is FaultKind.SLOW:
            return f"slow {self.node_id} x{self.magnitude:g} for {self.duration_s:g}s"
        return f"{self.kind.value} {self.node_id} for {self.duration_s:g}s"


class FaultSchedule:
    """A time-ordered, validated sequence of fault events."""

    def __init__(self, events: Sequence[FaultEvent] = ()):
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time_s, e.node_id, e.kind.value))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultSchedule({len(self.events)} events)"

    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind.value] = out.get(ev.kind.value, 0) + 1
        return out

    # ----------------------------------------------------------- generators

    @classmethod
    def poisson(
        cls,
        dram_ids: Sequence[str],
        log_ids: Sequence[str] = (),
        *,
        horizon_s: float,
        mttf_s: float,
        seed: int = 0,
        weights: dict[FaultKind, float] | None = None,
    ) -> "FaultSchedule":
        """Per-node Poisson arrivals at rate ``1/mttf_s`` over ``horizon_s``.

        Every node draws exponential inter-arrival gaps from one seeded rng
        (nodes in sorted order, so the stream is reproducible); each arrival
        is assigned a kind from ``weights``.  Disk stalls only make sense on
        log nodes, so a stall drawn for a DRAM node falls back to a blip.
        """
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
        if mttf_s <= 0:
            raise ValueError(f"mttf_s must be > 0, got {mttf_s}")
        w = dict(DEFAULT_WEIGHTS if weights is None else weights)
        kinds = sorted(w, key=lambda k: k.value)
        probs = np.array([w[k] for k in kinds], dtype=float)
        probs /= probs.sum()
        rng = np.random.default_rng(seed)
        log_set = set(log_ids)
        events: list[FaultEvent] = []
        for nid in sorted([*dram_ids, *log_ids]):
            t = 0.0
            while True:
                t += float(rng.exponential(mttf_s))
                if t >= horizon_s:
                    break
                kind = kinds[int(rng.choice(len(kinds), p=probs))]
                if kind is FaultKind.STALL and nid not in log_set:
                    kind = FaultKind.BLIP
                if kind is FaultKind.CRASH:
                    events.append(FaultEvent(t, kind, nid))
                elif kind is FaultKind.BLIP:
                    events.append(FaultEvent(t, kind, nid, duration_s=BLIP_S))
                elif kind is FaultKind.STALL:
                    events.append(FaultEvent(t, kind, nid, duration_s=STALL_S))
                elif kind is FaultKind.SLOW:
                    events.append(
                        FaultEvent(
                            t, kind, nid, duration_s=SLOW_S, magnitude=SLOW_FACTOR
                        )
                    )
                else:
                    events.append(FaultEvent(t, kind, nid, duration_s=PARTITION_S))
        return cls(events)

    @classmethod
    def with_expected_faults(
        cls,
        dram_ids: Sequence[str],
        log_ids: Sequence[str] = (),
        *,
        horizon_s: float,
        expected_faults: float,
        **kw,
    ) -> "FaultSchedule":
        """Poisson schedule sized so ~``expected_faults`` fire in aggregate."""
        if expected_faults <= 0:
            raise ValueError(f"expected_faults must be > 0, got {expected_faults}")
        n_nodes = len(dram_ids) + len(log_ids)
        mttf_s = n_nodes * horizon_s / expected_faults
        return cls.poisson(dram_ids, log_ids, horizon_s=horizon_s, mttf_s=mttf_s, **kw)
