"""Baseline stores the paper compares against (§6.1).

* :class:`repro.baselines.replication.ReplicatedStore` -- (r+1)-way replication.
* :class:`repro.baselines.replication.VanillaMemcached` -- the same store at
  one copy: no redundancy.
* :class:`repro.baselines.ipmem.IPMem` -- Memcached + erasure coding with
  in-place parity updates.
* :class:`repro.baselines.fsmem.FSMem` -- Memcached + full-stripe updates
  with deferred GC (BCStore-style).
"""

from repro.baselines.replication import ReplicatedStore, VanillaMemcached
from repro.baselines.ipmem import IPMem
from repro.baselines.fsmem import FSMem

__all__ = ["FSMem", "IPMem", "ReplicatedStore", "VanillaMemcached"]


def make_store(name: str, config):
    """Instantiate any system under test by its paper name."""
    from repro.core.logecmem import LogECMem

    registry = {
        "vanilla": VanillaMemcached,
        "replication": ReplicatedStore,
        "ipmem": IPMem,
        "fsmem": FSMem,
        "logecmem": LogECMem,
    }
    try:
        cls = registry[name.lower()]
    except KeyError:
        raise ValueError(f"unknown store {name!r}; choose from {sorted(registry)}") from None
    return cls(config)
