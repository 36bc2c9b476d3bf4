"""Outside-in tracer: host-clock spans at every layer boundary.

Nothing under ``src/`` knows about this.  :class:`OutsideTracer` replaces
the public methods and functions listed in :func:`targets` with thin
wrappers -- on the class that defines them, or on every loaded module that
bound the function by name -- and puts the originals back afterwards.  Each
wrapped call records one span (name, layer, start, end, parent) into
pre-allocated arrays; spans are analysed and written out only after the run.

Attribution rules worth knowing when reading the numbers:

* a span's *self time* is its duration minus what its child spans cover;
  a layer's ``self_share`` is the sum of its spans' self time over the wall
  time of the traced section, net of the benchmark's own value checking;
* a method inherited from another layer is billed where its code lives
  (``IPMem.read`` is ``StripedStoreBase.read``: layer ``core``);
* work that runs inside a callback is billed to whoever invoked the callback
  until it crosses the next boundary, so engine handlers running under
  ``EventQueue.run_until`` count as ``sim`` -- which is why the acceptance
  check on the engine workload adds ``engine`` and ``sim`` together;
* boundaries crossed more than ~10 times per store op (``Counters.add``,
  ``Span.child``) are counted, not timed: a timer there would cost more than
  the call.

This is the traced run only; end-to-end numbers are never taken with the
tracer installed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import repro.baselines  # noqa: F401  (loads every KVStore subclass before targets() walks them)
from repro.bench import runner as bench_runner
from repro.chaos import harness as chaos_harness
from repro.chaos import invariants as chaos_invariants
from repro.chaos.faults import FaultInjector
from repro.chaos.harness import ChaosRun
from repro.chaos.policy import RobustProxy
from repro.cluster.node import LogNode
from repro.core import recovery as core_recovery
from repro.core import repair as core_repair
from repro.core import scrub as core_scrub
from repro.core.interface import KVStore
from repro.ec import delta as ec_delta
from repro.ec import gf256 as ec_gf256
from repro.ec.rs import RSCode
from repro.engine import jobs as engine_jobs
from repro.engine import load as engine_load
from repro.engine.admission import AdmissionGate
from repro.engine.core import Engine
from repro.engine.stations import Station
from repro.heal.plane import ControlPlane
from repro.kvstore import chunk as kv_chunk
from repro.kvstore.memtable import MemTable
from repro.logstore.base import LogScheme
from repro.logstore.buffer import LogBuffer
from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span, Tracer
from repro.obs.timeseries import TelemetrySampler
from repro.sim.disk import DiskModel
from repro.sim.events import EventQueue
from repro.sim.network import NetworkModel
from repro.sim.resources import Counters
from repro.workloads import ycsb as workloads_ycsb

from perf.registry import LAYERS

STORE_OPS = ("write", "read", "update", "delete", "degraded_read")

#: (class, method names) timed at each layer boundary; subclasses that
#: override a method are patched too (see ``_defining_classes``)
_CLASS_TARGETS = [
    (RSCode, ("encode", "decode", "xor_parity", "repair_with_xor", "parity_delta")),
    (MemTable, ("get", "set", "delete")),
    (LogNode, ("append", "read_uptodate_parity", "settle")),
    (LogBuffer, ("add", "drain")),
    (LogScheme, ("flush", "read_parity", "settle")),
    (NetworkModel, ("rpc_to", "sequential_gets", "parallel_puts", "parallel_gets", "client_hop")),
    (DiskModel, ("read", "write")),
    (EventQueue, ("schedule", "run_until", "drain")),
    (Tracer, ("start", "finish")),
    (MetricsRegistry, ("observe_span",)),
    (EventJournal, ("emit",)),
    (TelemetrySampler, ("sample",)),
    (KVStore, STORE_OPS),
    (Engine, ("run",)),
    (Station, ("submit",)),
    (AdmissionGate, ("offer", "release")),
    (ChaosRun, ("execute",)),
    (RobustProxy, ("execute",)),
    (FaultInjector, ("apply",)),
    (ControlPlane, ("poll",)),
]

#: module-level functions, patched wherever a loaded module bound them
_FUNCTION_TARGETS = [
    (ec_delta, "merge_parity_deltas"),
    (ec_gf256, "gf_mul_scalar"),
    (kv_chunk, "make_value"),
    (core_repair, "repair_node"),
    (core_scrub, "scrub"),
    (core_recovery, "recover_log_node"),
    (engine_jobs, "derive_jobs"),
    (engine_load, "run_point"),
    (engine_load, "build_jobs"),
    (chaos_harness, "run_chaos"),
    (chaos_invariants, "check_store"),
    (workloads_ycsb, "generate_requests"),
    (bench_runner, "run_requests"),
    (bench_runner, "load_store"),
    (bench_runner, "measure_degraded_reads"),
]

#: counted, not timed
_COUNTED_TARGETS = [(Counters, "add"), (Span, "child")]

_ALL_LAYERS = (*LAYERS, "bench")


def _layer_of(module_name: str) -> str:
    """``repro.<layer>.…`` -> layer."""
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "bench"


def _defining_classes(base: type, attr: str) -> list[type]:
    """``base`` and every subclass that defines a concrete ``attr`` itself."""
    found, stack, seen = [], [base], set()
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        fn = cls.__dict__.get(attr)
        if inspect.isfunction(fn) and not getattr(fn, "__isabstractmethod__", False):
            found.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def targets() -> list[tuple[object, str, str, str, bool]]:
    """Every patch point as ``(owner, attr, span name, layer, timed)``.

    A function target expands to one entry per loaded ``repro.*`` / ``perf.*``
    module that holds the same function object under any name.
    """
    out: list[tuple[object, str, str, str, bool]] = []
    for base, attrs in _CLASS_TARGETS:
        for attr in attrs:
            for cls in _defining_classes(base, attr):
                out.append(
                    (cls, attr, f"{cls.__name__}.{attr}", _layer_of(cls.__module__), True)
                )
    for cls, attr in _COUNTED_TARGETS:
        out.append((cls, attr, f"{cls.__name__}.{attr}", _layer_of(cls.__module__), False))
    for home, name in _FUNCTION_TARGETS:
        original = getattr(home, name)
        layer = _layer_of(home.__name__)
        for mod_name in sorted(sys.modules):
            module = sys.modules[mod_name]
            ours = mod_name == "repro" or mod_name.startswith(("repro.", "perf."))
            if module is None or not ours:
                continue
            for bound_as, value in list(vars(module).items()):
                if value is original:
                    out.append((module, bound_as, name, layer, True))
    return out


class OutsideTracer:
    """Span recorder plus the patch/restore machinery."""

    def __init__(self, capacity: int = 3_000_000):
        self.capacity = capacity
        self.start = array("d", bytes(8 * capacity))
        self.end = array("d", bytes(8 * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.name_id = array("i", bytes(4 * capacity))
        self.n = 0
        self.cur = -1
        self.paused = False
        self.dropped = 0
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._name_index: dict[tuple[str, str], int] = {}
        self.counted: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._op_ids = {op: self._intern(f"op.{op}", "bench") for op in STORE_OPS}
        self._check_id = self._intern("check", "bench")

    # ------------------------------------------------------------- recording

    def _intern(self, name: str, layer: str) -> int:
        key = (name, layer)
        nid = self._name_index.get(key)
        if nid is None:
            nid = self._name_index[key] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        i = self.n
        if i >= self.capacity:
            self.dropped += 1
            return -1
        self.n = i + 1
        self.parent[i] = self.cur
        self.name_id[i] = nid
        self.cur = i
        self.start[i] = perf_counter()
        return i

    def _close(self, i: int) -> None:
        if i >= 0:
            self.end[i] = perf_counter()
            self.cur = self.parent[i]

    def begin_op(self, op: str) -> int:
        """Open the span of one store op (called by ``CheckedStore``)."""
        return -1 if self.paused else self._open(self._op_ids[op])

    def end_op(self, span: int) -> None:
        self._close(span)

    def begin_check(self):
        """Open a ``check`` span and pause tracing: the checked store's value
        comparison is the benchmark's work, not the system's, and
        :meth:`summary` leaves it out of the traced wall.  Returns a token for
        :meth:`end_check` (None when tracing was already paused)."""
        if self.paused:
            return None
        span = self._open(self._check_id)
        self.paused = True
        return span

    def end_check(self, token) -> None:
        if token is not None:
            self.paused = False
            self._close(token)

    @contextmanager
    def section(self, name: str):
        """Root span around the whole traced section (layer ``bench``)."""
        span = self._open(self._intern(name, "bench"))
        try:
            yield
        finally:
            self._close(span)

    def _timed_wrapper(self, original, nid: int):
        tracer = self
        opener, closer = self._open, self._close

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            span = opener(nid)
            try:
                return original(*args, **kwargs)
            finally:
                closer(span)

        return wrapper

    def _counting_wrapper(self, original, nid: int):
        counted = self.counted
        counted[nid] = 0

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counted[nid] += 1
            return original(*args, **kwargs)

        return wrapper

    # -------------------------------------------------------- patch / restore

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}  # one wrapper per original function
        for owner, attr, name, layer, timed in targets():
            original = vars(owner)[attr]
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                nid = self._intern(name, layer)
                make = self._timed_wrapper if timed else self._counting_wrapper
                wrapper = wrappers[id(original)] = make(original, nid)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --------------------------------------------------------------- analysis

    def _arrays(self):
        n = self.n
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        return start, end, parent, name_id

    def _ancestor_where(self, flag: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """Per span: index of the nearest self-or-ancestor span with ``flag``
        set, or -1.  Parents precede children, so a few rounds of pointer
        jumping (one per nesting level) settle it."""
        idx = np.arange(len(parent), dtype=np.int64)
        anc = np.where(flag, idx, parent.astype(np.int64))
        while True:
            live = anc >= 0
            unresolved = live & ~flag[np.where(live, anc, 0)]
            if not unresolved.any():
                return anc
            anc = np.where(unresolved, parent[np.where(unresolved, anc, 0)], anc)

    def summary(self, ops: int) -> dict:
        """Per-layer self time and call counts of everything recorded.

        ``ops`` is the workload's operation count (the ``calls_per_kop``
        denominator).  ``phases`` splits the same self times by the depth-1
        span (``run_requests``, ``run_point``, ``run_chaos`` ...) they fell
        under, as shares of that phase's own duration.
        """
        start, end, parent, name_id = self._arrays()
        n = len(start)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        layer_index = {layer: i for i, layer in enumerate(_ALL_LAYERS)}
        layer_of_name = np.array([layer_index[name] for name in self.name_layer], dtype=np.int64)
        span_layer = layer_of_name[name_id]
        is_check = name_id == self._check_id
        self_time[is_check] = 0.0
        wall = float(dur[~has_parent].sum() - dur[is_check].sum())
        self_by_layer = np.bincount(span_layer, weights=self_time, minlength=len(_ALL_LAYERS))
        calls_by_layer = np.bincount(span_layer, minlength=len(_ALL_LAYERS)).astype(np.int64)
        for nid, count in self.counted.items():
            calls_by_layer[layer_index[self.name_layer[nid]]] += count

        # phases: spans whose parent is a root
        is_phase = has_parent & ~has_parent[np.where(has_parent, parent, 0)]
        phase_of = self._ancestor_where(is_phase, parent)
        phases: dict[str, dict[str, float]] = {}
        in_phase = phase_of >= 0
        if in_phase.any():
            phase_name = name_id[phase_of[in_phase]]
            key = phase_name.astype(np.int64) * len(_ALL_LAYERS) + span_layer[in_phase]
            sums = np.bincount(key, weights=self_time[in_phase])
            phase_total = np.bincount(
                name_id[is_phase], weights=dur[is_phase], minlength=len(self.names)
            )
            for k in np.nonzero(sums)[0]:
                nid, layer = divmod(int(k), len(_ALL_LAYERS))
                phases.setdefault(self.names[nid], {})[_ALL_LAYERS[layer]] = round(
                    float(sums[k] / phase_total[nid]), 6
                )

        per_name = np.bincount(name_id, minlength=len(self.names))
        calls = {self.names[i]: int(c) for i, c in enumerate(per_name) if c}
        calls.update({self.names[nid]: count for nid, count in self.counted.items()})
        return {
            "spans": n,
            "dropped": self.dropped,
            "wall_s": wall,
            "self_share": {
                layer: float(self_by_layer[i] / wall) if wall > 0 else 0.0
                for layer, i in layer_index.items()
            },
            "calls_per_kop": {
                layer: float(calls_by_layer[i]) / ops * 1e3
                for layer, i in layer_index.items()
            },
            "calls": dict(sorted(calls.items())),
            "phases": phases,
        }

    def write_jsonl(self, path) -> None:
        """One header line, then one line per span.  ``op`` is the id of the
        store op the span belongs to (the ``op.*`` span opened by the checked
        store), -1 outside any op; times are microseconds from the first span."""
        start, end, parent, name_id = self._arrays()
        is_op = np.isin(name_id, np.array(sorted(self._op_ids.values()), dtype=np.int32))
        op_of = self._ancestor_where(is_op, parent)
        base = float(start[0]) if len(start) else 0.0
        t0 = ((start - base) * 1e6).round(3).tolist()
        t1 = ((end - base) * 1e6).round(3).tolist()
        parents, ops, nids = parent.tolist(), op_of.tolist(), name_id.tolist()
        heads = [
            f'"name":"{name}","layer":"{layer}"'
            for name, layer in zip(self.names, self.name_layer)
        ]
        with open(path, "w") as fh:
            fh.write(
                json.dumps(
                    {
                        "spans": len(t0),
                        "dropped": self.dropped,
                        "counted": {self.names[n]: c for n, c in self.counted.items()},
                    }
                )
                + "\n"
            )
            fh.writelines(
                f'{{"i":{i},"op":{ops[i]},"parent":{parents[i]},{heads[nids[i]]},'
                f'"t0_us":{t0[i]},"t1_us":{t1[i]}}}\n'
                for i in range(len(t0))
            )
