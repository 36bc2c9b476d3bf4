"""Consistent hashing ring (Karger et al.), as used by libmemcached.

Maps keys to node ids with virtual nodes for smoothing.  Node removal only
remaps the removed node's arc, which is why the prototype (and ECHash before
it) relies on it for even distribution with minimal churn.
"""

from __future__ import annotations

import bisect
import functools
import hashlib


def _hash64(s: str) -> int:
    """Stable 64-bit hash (Python's builtin hash() is salted per process)."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")


@functools.cache
def _vnode_points(node_id: str, vnodes: int) -> tuple[int, ...]:
    """A node's raw ring points, before collision nudging.

    A pure function of its arguments, remembered per process: every store a
    run builds puts the same node ids on its ring.
    """
    return tuple(_hash64(f"{node_id}#{v}") for v in range(vnodes))


class ConsistentHashRing:
    """Sorted-ring consistent hashing with virtual nodes."""

    def __init__(self, nodes: list[str] | None = None, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._nodes: set[str] = set()
        for node in nodes or []:
            self.add_node(node)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def add_node(self, node_id: str) -> None:
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already on the ring")
        self._nodes.add(node_id)
        owners = self._owners
        for point in _vnode_points(node_id, self.vnodes):
            # extremely unlikely collision: nudge deterministically
            while point in owners:
                point = (point + 1) & 0xFFFFFFFFFFFFFFFF
            owners[point] = node_id
            self._points.append(point)
        self._points.sort()

    def lookup(self, key: str) -> str:
        """Owning node for ``key`` (first ring point clockwise)."""
        if not self._points:
            raise LookupError("hash ring is empty")
        h = _hash64(key)
        idx = bisect.bisect(self._points, h)
        if idx == len(self._points):
            idx = 0
        return self._owners[self._points[idx]]

    def lookup_many(self, key: str, count: int) -> list[str]:
        """First ``count`` distinct nodes clockwise from ``key`` (replica sets)."""
        if count > len(self._nodes):
            raise ValueError(f"asked for {count} nodes, ring has {len(self._nodes)}")
        points, owners = self._points, self._owners
        n = len(points)
        idx = bisect.bisect(points, _hash64(key))
        out: list[str] = []
        for step in range(n):
            owner = owners[points[(idx + step) % n]]
            # ``count`` is a handful of replicas: a list scan beats a set
            if owner not in out:
                out.append(owner)
                count -= 1
                if not count:
                    break
        return out
