"""YCSB-style request streams (§6.2).

The paper loads one million objects with write requests, then issues one
million requests with Zipf-distributed keys under two mix families:

* read/**write** ratios (Experiment 1): writes insert *new* objects,
* read/**update** ratios (Experiments 2-6): updates overwrite existing ones.

Everything is deterministic per seed so experiment runs are reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.workloads.zipf import ScrambledZipfian


class Operation(enum.Enum):
    READ = "read"
    UPDATE = "update"
    WRITE = "write"
    DELETE = "delete"

    def __init__(self, method: str):
        #: the KVStore method (and latency series) this op names -- a plain
        #: attribute, so replay loops skip ``.value``'s descriptor walk
        self.method = method


@dataclass(frozen=True)
class Request:
    op: Operation
    key: str


@dataclass
class WorkloadSpec:
    """One workload: population size, request count and operation mix."""

    n_objects: int = 10_000
    n_requests: int = 10_000
    read_ratio: float = 0.95
    update_ratio: float = 0.05
    write_ratio: float = 0.0
    value_size: int = 4096
    seed: int = 42

    def __post_init__(self) -> None:
        total = self.read_ratio + self.update_ratio + self.write_ratio
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation ratios must sum to 1, got {total}")
        if self.n_objects < 1 or self.n_requests < 0:
            raise ValueError("population and request count must be positive")

    @classmethod
    def read_update(cls, ratio: str, **kw) -> "WorkloadSpec":
        """Spec from a paper-style 'read:update' string like '95:5'."""
        read, update = (int(x) for x in ratio.split(":"))
        return cls(read_ratio=read / 100, update_ratio=update / 100, write_ratio=0.0, **kw)

    @classmethod
    def read_write(cls, ratio: str, **kw) -> "WorkloadSpec":
        """Spec from a paper-style 'read:write' string like '95:5'."""
        read, write = (int(x) for x in ratio.split(":"))
        return cls(read_ratio=read / 100, update_ratio=0.0, write_ratio=write / 100, **kw)


def object_key(i: int) -> str:
    """YCSB-style key (~20 bytes with the default setting)."""
    return f"user{i:016d}"


def load_keys(spec: WorkloadSpec) -> list[str]:
    """Keys of the load phase, in insertion (FIFO striping) order."""
    return [object_key(i) for i in range(spec.n_objects)]


#: the run-phase mix, in the order ``WorkloadSpec`` lists its ratios; the
#: op streams are drawn as indices into it
_MIX_OPS = (Operation.READ, Operation.UPDATE, Operation.WRITE)
_UPDATE, _WRITE = 1, 2


def _draw(spec: WorkloadSpec) -> tuple[np.ndarray, np.ndarray]:
    """The run phase's op indices (into ``_MIX_OPS``) and chosen key indices."""
    rng = np.random.default_rng(spec.seed)
    ops = rng.choice(
        len(_MIX_OPS),
        size=spec.n_requests,
        p=[spec.read_ratio, spec.update_ratio, spec.write_ratio],
    )
    keys = ScrambledZipfian(spec.n_objects, seed=spec.seed + 1).sample(spec.n_requests)
    return ops, keys


def generate_requests(spec: WorkloadSpec) -> list[Request]:
    """The run phase: ``n_requests`` operations, Zipf-chosen keys.

    Write requests insert fresh keys beyond the loaded population (YCSB's
    insert behaviour); reads and updates target loaded keys.
    """
    ops, keys = _draw(spec)
    writes = ops == _WRITE
    keys[writes] = spec.n_objects + np.arange(np.count_nonzero(writes))
    return request_stream(ops, keys)


def request_stream(ops: np.ndarray, keys: np.ndarray) -> list[Request]:
    """The requests of parallel arrays of op indices (into ``_MIX_OPS``:
    read, update, write) and key indices.

    The streams are skewed, so most (op, key) pairs repeat: a ``Request`` is
    frozen, and the stream holds one per distinct pair and one key string
    per distinct key.
    """
    # a request's code is key * 3 + op: equal codes are equal requests
    m = len(_MIX_OPS)
    pairs, pair_of = np.unique(keys * m + ops, return_inverse=True)
    key_ids, key_of = np.unique(pairs // m, return_inverse=True)
    names = [object_key(i) for i in key_ids.tolist()]
    # an object array gathers the stream in C, with no Python int per request
    distinct = np.empty(len(pairs), dtype=object)
    distinct[:] = [
        Request(_MIX_OPS[op], names[k]) for op, k in zip((pairs % m).tolist(), key_of.tolist())
    ]
    return distinct[pair_of].tolist()


def update_trace(spec: WorkloadSpec) -> np.ndarray:
    """Indices (into the loaded population) of the update requests only.

    Used by the Observation-1/2 analyses, which never need the full request
    objects -- a NumPy array keeps million-request analyses fast.
    """
    ops, keys = _draw(spec)
    return keys[ops == _UPDATE]
