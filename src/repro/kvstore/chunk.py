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

import functools
import zlib
from typing import NamedTuple

import numpy as np


class ChunkSlot(NamedTuple):
    """Placement of one object inside a chunk, in both address spaces.

    An immutable record minted once per packed object (a tuple is the
    cheapest immutable record to build)."""

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


@functools.cache
def _scaled_len(logical_len: int, payload_scale: float) -> int:
    """Physical bytes standing in for ``logical_len`` logical bytes (at least
    one); a store asks for the same few sizes once per packed object."""
    return max(1, round(logical_len * payload_scale))


class Chunk:
    """A fixed-size data or parity chunk with FCFS object packing."""

    def __init__(self, logical_size: int, payload_scale: float = 1.0):
        if logical_size <= 0:
            raise ValueError(f"logical_size must be positive, got {logical_size}")
        if not 0 < payload_scale <= 1:
            raise ValueError(f"payload_scale must be in (0, 1], got {payload_scale}")
        self.logical_size = int(logical_size)
        self.payload_scale = float(payload_scale)
        self.physical_size = _scaled_len(self.logical_size, self.payload_scale)
        self.buffer = np.zeros(self.physical_size, dtype=np.uint8)
        self.slots: list[ChunkSlot] = []
        self._cursor = 0       # next free logical byte
        self._phys_cursor = 0  # next free physical byte

    # ----------------------------------------------------------------- packing

    def free_logical(self) -> int:
        return self.logical_size - self._cursor

    def _phys_len(self, logical_len: int) -> int:
        return _scaled_len(logical_len, self.payload_scale)

    def append(self, key: str, logical_len: int, value: np.ndarray) -> ChunkSlot:
        """Pack one object value at the end of the chunk (FCFS).

        ``value`` must already be scaled to the physical length for this
        logical length.
        """
        plen = _scaled_len(logical_len, self.payload_scale)
        cursor, phys_cursor = self._cursor, self._phys_cursor
        if (
            logical_len > self.logical_size - cursor
            or plen > self.physical_size - phys_cursor
        ):
            raise ValueError(
                f"object of {logical_len} logical bytes does not fit "
                f"(free={self.logical_size - cursor})"
            )
        value = np.asarray(value, dtype=np.uint8)
        if value.size != plen:
            raise ValueError(f"physical value must be {plen} bytes, got {value.size}")
        slot = ChunkSlot(key, cursor, logical_len, phys_cursor, plen)
        self.buffer[phys_cursor : phys_cursor + plen] = value
        self.slots.append(slot)
        self._cursor = cursor + logical_len
        self._phys_cursor = phys_cursor + plen
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


#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: the stream every value is drawn from: PCG's own default increment
#: (PCG_DEFAULT_INCREMENT_128), so ``initseq`` is that increment shifted right
PCG_INC = (6364136223846793005 << 64) | 1442695040888963407
_MASK_128 = (1 << 128) - 1
#: one generator, re-pointed at each value's start state; a value is a pure
#: function of its arguments, never of the generator's previous use
_pcg64 = np.random.PCG64(0)


def make_value(key: str, version: int, phys_length: int) -> np.ndarray:
    """Deterministic physical value bytes for (key, version).

    Stores mint every version's bytes here and ``expected_value`` re-derives
    them independently, so reads, degraded reads and repairs are verified
    bit-exactly against an oracle that never saw the stored copy.  The seed
    is a stable hash (not Python's salted ``hash()``) so values are identical
    across processes and hosts.

    The bytes are the PCG64 stream that PCG's own seeding,
    ``srandom(initstate, initseq)``, starts: ``initstate`` is
    ``crc32(key NUL version) or 1`` and ``inc`` is :data:`PCG_INC` for every
    value, so the start state is ``((inc + initstate) * PCG_MULT + inc) mod
    2**128``.  That state is set on one ``PCG64`` directly -- numpy's seed
    hashing, most of a small value's cost, never runs -- and its raw 64-bit
    outputs are laid out little-endian; tests/test_kvstore.py re-derives
    them with a pure-Python PCG64.  ``<u8`` is spelled out so a big-endian
    host would byte-swap rather than silently mint different values.
    """
    initstate = zlib.crc32(f"{key}\x00{version}".encode()) or 1
    _pcg64.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": ((PCG_INC + initstate) * PCG_MULT + PCG_INC) & _MASK_128,
            "inc": PCG_INC,
        },
        "has_uint32": 0,
        "uinteger": 0,
    }
    raw = _pcg64.random_raw((phys_length + 7) >> 3)
    return raw.astype("<u8", copy=False).view(np.uint8)[:phys_length]
