"""Hash-table KV store with memory accounting.

Stands in for one memcached v1.4 instance.  Each item tracks its *logical*
size (what the paper's memory-overhead plots measure: the item's value bytes
at full scale plus key and item-header overhead); the stores keep the
scaled-down physical bytes themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Per-item metadata overhead of a memcached item header + pointers (bytes).
ITEM_OVERHEAD = 56


@dataclass
class StoredItem:
    """One stored KV item."""

    key: str
    logical_size: int

    @property
    def footprint(self) -> int:
        """Logical DRAM footprint: value + key + item header."""
        return self.logical_size + len(self.key) + ITEM_OVERHEAD


class MemTable:
    """One node's in-memory store with O(1) get/set/delete and live accounting."""

    def __init__(self, name: str = "memtable"):
        self.name = name
        self._items: dict[str, StoredItem] = {}
        self._logical_bytes = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def set(self, key: str, logical_size: int) -> StoredItem:
        """Insert or replace an item; accounting stays consistent on replace."""
        if logical_size < 0:
            raise ValueError(f"negative logical_size {logical_size}")
        old = self._items.get(key)
        if old is not None:
            self._logical_bytes -= old.footprint
        item = self._items[key] = StoredItem(key, logical_size)
        # item.footprint, spelled out: one set per object written
        self._logical_bytes += logical_size + len(key) + ITEM_OVERHEAD
        return item

    def get(self, key: str) -> StoredItem | None:
        return self._items.get(key)

    def delete(self, key: str) -> bool:
        """Remove an item; returns False if it was absent."""
        item = self._items.pop(key, None)
        if item is None:
            return False
        self._logical_bytes -= item.footprint
        return True

    def keys(self):
        return self._items.keys()

    def items(self):
        return self._items.items()

    @property
    def logical_bytes(self) -> int:
        """Total logical DRAM footprint of this node."""
        return self._logical_bytes

    def clear(self) -> None:
        self._items.clear()
        self._logical_bytes = 0
