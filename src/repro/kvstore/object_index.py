"""The proxy's Object Index (§3.2, §4.1).

Maps an object's key to its stripe, its data chunk's sequence number within
the stripe, and the (offset, length) of the object inside that chunk.  This
is exactly the metadata the update and degraded-read workflows look up first.
"""

from __future__ import annotations

from typing import NamedTuple


class ObjectLocation(NamedTuple):
    """Where one object lives (an immutable record, minted per sealed
    object)."""

    stripe_id: int
    seq_no: int      # data chunk index within the stripe, 0 <= seq_no < k
    offset: int      # logical offset within the data chunk
    length: int      # logical length

    @property
    def end(self) -> int:
        return self.offset + self.length


class ObjectIndex:
    """key -> ObjectLocation with O(1) lookup."""

    def __init__(self) -> None:
        self._index: dict[str, ObjectLocation] = {}

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def put(self, key: str, location: ObjectLocation) -> None:
        self._index[key] = location

    def get(self, key: str) -> ObjectLocation | None:
        return self._index.get(key)

    def lookup(self, key: str) -> ObjectLocation:
        loc = self._index.get(key)
        if loc is None:
            raise KeyError(f"object {key!r} is not indexed")
        return loc

    def remove(self, key: str) -> bool:
        return self._index.pop(key, None) is not None

    def keys(self):
        return self._index.keys()
