"""The proxy's Stripe Index (§3.2, §4.1).

For each stripe it records, in order, where all k data chunks and r parity
chunks live (node ids), and the object keys packed into each data chunk --
everything a degraded read or repair needs to gather the survivors.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class StripeRecord:
    """Placement and content metadata for one stripe.

    ``chunk_nodes[i]`` is the node id holding global chunk index ``i``
    (0..k-1 data, k the XOR parity, k+1..k+r-1 logged parities).
    ``chunk_keys[i]`` lists the object keys packed into data chunk ``i``.
    """

    stripe_id: int
    k: int
    r: int
    chunk_nodes: list[str]
    chunk_keys: list[list[str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.chunk_nodes) != self.k + self.r:
            raise ValueError(
                f"stripe {self.stripe_id}: expected {self.k + self.r} chunk "
                f"placements, got {len(self.chunk_nodes)}"
            )
        if not self.chunk_keys:
            self.chunk_keys = [[] for _ in range(self.k)]

    @property
    def n(self) -> int:
        return self.k + self.r

    def data_nodes(self) -> list[str]:
        return self.chunk_nodes[: self.k]

    def xor_parity_node(self) -> str:
        return self.chunk_nodes[self.k]

    def chunks_on_node(self, node_id: str) -> list[int]:
        """Global chunk indices of this stripe stored on ``node_id``."""
        return [i for i, nid in enumerate(self.chunk_nodes) if nid == node_id]


class StripeIndex:
    """stripe_id -> StripeRecord plus reverse node -> stripes map."""

    def __init__(self) -> None:
        self._stripes: dict[int, StripeRecord] = {}
        self._by_node: defaultdict[str, set[int]] = defaultdict(set)

    def __len__(self) -> int:
        return len(self._stripes)

    def __contains__(self, stripe_id: int) -> bool:
        return stripe_id in self._stripes

    def put(self, record: StripeRecord) -> None:
        self._stripes[record.stripe_id] = record
        for nid in sorted(set(record.chunk_nodes)):
            self._by_node[nid].add(record.stripe_id)

    def get(self, stripe_id: int) -> StripeRecord:
        rec = self._stripes.get(stripe_id)
        if rec is None:
            raise KeyError(f"stripe {stripe_id} is not indexed")
        return rec

    def stripes_on_node(self, node_id: str) -> list[int]:
        """All stripe ids with at least one chunk on ``node_id`` (sorted for
        deterministic repair order)."""
        return sorted(self._by_node.get(node_id, ()))

    def remove(self, stripe_id: int) -> None:
        """Forget a stripe (used when GC re-forms it into new stripes)."""
        rec = self._stripes.pop(stripe_id, None)
        if rec is None:
            raise KeyError(f"stripe {stripe_id} is not indexed")
        for nid in sorted(set(rec.chunk_nodes)):
            bucket = self._by_node.get(nid)
            if bucket is not None:
                bucket.discard(stripe_id)
                if not bucket:
                    del self._by_node[nid]

    def stripe_ids(self):
        return self._stripes.keys()
