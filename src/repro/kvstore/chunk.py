"""Fixed-size chunk buffers with logical/physical byte split.

The proxy's encoding queues (§4.1) gather object values into fixed-size units
(default 4 KiB) that become data chunks.  To keep paper-scale experiments
laptop-sized, a chunk has

* a **logical size** -- the real chunk size used for every byte of cost and
  memory accounting, and
* a **physical buffer** -- ``logical_size * payload_scale`` actual bytes on
  which all erasure-coding arithmetic runs.

Objects are packed first-come-first-serve; each object occupies a contiguous
slot addressed by (logical offset, logical length) with a parallel physical
slot.  With ``payload_scale == 1`` the two coincide exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChunkSlot:
    """Placement of one object inside a chunk, in both address spaces."""

    key: str
    offset: int          # logical offset within the chunk
    length: int          # logical length
    phys_offset: int
    phys_length: int

    @property
    def end(self) -> int:
        return self.offset + self.length

    @property
    def phys_end(self) -> int:
        return self.phys_offset + self.phys_length


class Chunk:
    """A fixed-size data or parity chunk with FCFS object packing."""

    def __init__(self, logical_size: int, payload_scale: float = 1.0):
        if logical_size <= 0:
            raise ValueError(f"logical_size must be positive, got {logical_size}")
        if not 0 < payload_scale <= 1:
            raise ValueError(f"payload_scale must be in (0, 1], got {payload_scale}")
        self.logical_size = int(logical_size)
        self.payload_scale = float(payload_scale)
        self.physical_size = max(1, round(logical_size * payload_scale))
        self.buffer = np.zeros(self.physical_size, dtype=np.uint8)
        self.slots: list[ChunkSlot] = []
        self._cursor = 0       # next free logical byte
        self._phys_cursor = 0  # next free physical byte

    # ----------------------------------------------------------------- packing

    def free_logical(self) -> int:
        return self.logical_size - self._cursor

    def _phys_len(self, logical_len: int) -> int:
        return max(1, round(logical_len * self.payload_scale))

    def fits(self, logical_len: int) -> bool:
        return (
            logical_len <= self.free_logical()
            and self._phys_len(logical_len) <= self.physical_size - self._phys_cursor
        )

    def append(self, key: str, logical_len: int, value: np.ndarray) -> ChunkSlot:
        """Pack one object value at the end of the chunk (FCFS).

        ``value`` must already be scaled to the physical length for this
        logical length.
        """
        if not self.fits(logical_len):
            raise ValueError(
                f"object of {logical_len} logical bytes does not fit "
                f"(free={self.free_logical()})"
            )
        plen = self._phys_len(logical_len)
        value = np.asarray(value, dtype=np.uint8)
        if value.size != plen:
            raise ValueError(f"physical value must be {plen} bytes, got {value.size}")
        slot = ChunkSlot(
            key=key,
            offset=self._cursor,
            length=logical_len,
            phys_offset=self._phys_cursor,
            phys_length=plen,
        )
        self.buffer[slot.phys_offset : slot.phys_end] = value
        self.slots.append(slot)
        self._cursor += logical_len
        self._phys_cursor += plen
        return slot

    # ----------------------------------------------------------------- access

    def read_slot(self, slot: ChunkSlot) -> np.ndarray:
        """Physical bytes of one object (a view, not a copy)."""
        return self.buffer[slot.phys_offset : slot.phys_end]

    def write_slot(self, slot: ChunkSlot, value: np.ndarray) -> None:
        """Overwrite one object's physical bytes in place (in-place update)."""
        value = np.asarray(value, dtype=np.uint8)
        if value.size != slot.phys_length:
            raise ValueError(
                f"value must be {slot.phys_length} physical bytes, got {value.size}"
            )
        self.buffer[slot.phys_offset : slot.phys_end] = value

    def slot_for(self, key: str) -> ChunkSlot | None:
        # newest first: a delete-then-rewrite can pack the same key twice
        # into one chunk, and only the latest slot holds live bytes
        for slot in reversed(self.slots):
            if slot.key == key:
                return slot
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Chunk(logical={self.logical_size}, physical={self.physical_size}, "
            f"objects={len(self.slots)}, used={self._cursor})"
        )


def make_value(key: str, version: int, phys_length: int) -> np.ndarray:
    """Deterministic physical value bytes for (key, version).

    Stores mint every version's bytes here and ``expected_value`` re-derives
    them independently, so reads, degraded reads and repairs are verified
    bit-exactly against an oracle that never saw the stored copy.  The seed
    is a stable hash (not Python's salted ``hash()``) so values are identical
    across processes and runs.

    The bytes are PCG64's raw 64-bit stream laid out little-endian -- exactly
    what ``default_rng(seed).integers(0, 256, n, uint8)`` yields (numpy
    serves full-range uint8 draws from the low byte of each 32-bit half
    upwards) without the ``Generator`` on top; tests/test_kvstore.py keeps
    that call as the oracle.  ``<u8`` is spelled out so a big-endian host
    would byte-swap rather than silently mint different values.
    """
    seed = zlib.crc32(f"{key}\x00{version}".encode()) or 1
    raw = np.random.PCG64(seed).random_raw((phys_length + 7) >> 3)
    return raw.astype("<u8", copy=False).view(np.uint8)[:phys_length]
