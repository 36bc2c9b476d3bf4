"""Standard YCSB core workloads as presets.

The paper parameterises YCSB by raw read:update / read:write ratios; users of
this library often want the named core workloads instead:

=====  ==========================  =========================
name   mix                         distribution
=====  ==========================  =========================
A      50% read / 50% update       zipfian
B      95% read / 5% update        zipfian
C      100% read                   zipfian
D      95% read / 5% insert        latest
E      (scan-based; approximated   zipfian
       here as 95% read / 5% insert)
F      50% read / 50% RMW          zipfian
=====  ==========================  =========================

Workload F's read-modify-write is expressed through
:func:`generate_preset_requests`, which emits a READ immediately followed by
an UPDATE of the same key.  Workload E's scans have no KV-store equivalent in
this codebase (LogECMem has no range queries), so E is approximated as an
insert-heavy mix; this substitution is documented here and in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.ycsb import Request, WorkloadSpec, request_stream
from repro.workloads.zipf import ZIPFIAN_CONSTANT, ZipfianGenerator, fnv1a_64


@dataclass(frozen=True)
class PresetDef:
    read: float
    update: float
    insert: float
    rmw: float
    distribution: str  # "zipfian" | "latest"


PRESETS: dict[str, PresetDef] = {
    "A": PresetDef(read=0.5, update=0.5, insert=0.0, rmw=0.0, distribution="zipfian"),
    "B": PresetDef(read=0.95, update=0.05, insert=0.0, rmw=0.0, distribution="zipfian"),
    "C": PresetDef(read=1.0, update=0.0, insert=0.0, rmw=0.0, distribution="zipfian"),
    "D": PresetDef(read=0.95, update=0.0, insert=0.05, rmw=0.0, distribution="latest"),
    "E": PresetDef(read=0.95, update=0.0, insert=0.05, rmw=0.0, distribution="zipfian"),
    "F": PresetDef(read=0.5, update=0.0, insert=0.0, rmw=0.5, distribution="zipfian"),
}


def preset_spec(name: str, **kw) -> WorkloadSpec:
    """A WorkloadSpec carrying the preset's read/update/write ratios.

    RMW counts as read+update at the spec level; use
    :func:`generate_preset_requests` to get the paired request stream."""
    d = _lookup(name)
    return WorkloadSpec(
        read_ratio=d.read + d.rmw / 2,
        update_ratio=d.update + d.rmw / 2,
        write_ratio=d.insert,
        **kw,
    )


def _lookup(name: str) -> PresetDef:
    try:
        return PRESETS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown YCSB preset {name!r}; choose from {sorted(PRESETS)}") from None


#: preset op indices, in the order ``PresetDef`` lists its mix
_INSERT, _RMW = 2, 3
#: preset op index -> the op index (read 0, update 1, write 2) of its
#: request; an RMW is a read, then an update of the same key
_REQUEST_OP = np.array([0, 1, 2, 0])


def generate_preset_requests(name: str, spec: WorkloadSpec) -> list[Request]:
    """Request stream for a named preset.

    Honors the preset's own mix and distribution (the spec supplies the
    population, request count, seed and value size).  RMW pairs count as two
    requests; inserts extend the population and shift the "latest" window.
    The stream is drawn as arrays: one op draw, one uniform per chosen key
    (:meth:`ZipfianGenerator.ranks`), the same draws YCSB's scalar
    ``next()`` / ``grow()`` make one request at a time.
    """
    d = _lookup(name)
    rng = np.random.default_rng(spec.seed)
    ops = rng.choice(4, size=spec.n_requests, p=[d.read, d.update, d.insert, d.rmw])
    inserts = ops == _INSERT
    grown = np.cumsum(inserts)  # inserts so far, the op's own included
    chosen = ~inserts
    zipf = ZipfianGenerator(spec.n_objects, seed=spec.seed + 1)
    keys = spec.n_objects + grown - 1  # an insert's fresh key
    if d.distribution == "latest":
        # each draw sees the population the inserts before it grew, its
        # zetan summed one term per insert in insert order, as grow() does
        seen = grown[chosen]
        n = spec.n_objects + seen
        last = spec.n_objects + np.count_nonzero(inserts)
        terms = 1.0 / np.arange(spec.n_objects + 1, last + 1, dtype=np.float64) ** ZIPFIAN_CONSTANT
        zetan = np.cumsum(np.concatenate(([zipf.zetan], terms)))[seen]
        keys[chosen] = np.maximum(0, n - 1 - zipf.ranks(len(n), n, zetan))
    else:
        ranks = zipf.ranks(np.count_nonzero(chosen), zipf.n, zipf.zetan)
        keys[chosen] = fnv1a_64(ranks.astype(np.uint64)) % spec.n_objects
    # an RMW is two requests on one key; the stream stops at n_requests
    op_of = np.repeat(np.arange(len(ops)), 1 + (ops == _RMW))[: spec.n_requests]
    req_ops = _REQUEST_OP[ops[op_of]]
    req_ops[1:][op_of[1:] == op_of[:-1]] = 1  # an RMW's update
    return request_stream(req_ops, keys[op_of])
