"""Vectorised arithmetic over the Galois field GF(2^8).

The field is built from the primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11D) with generator element 2, the construction used by most storage
codecs (Jerasure, ISA-L).  Addition and subtraction are XOR; multiplication
and division go through exp/log tables so that NumPy can evaluate them
element-wise over whole chunks without Python-level loops (see the
"vectorizing for loops" guidance for numerical Python).

All public functions accept scalars or ``uint8`` ndarrays and broadcast like
normal NumPy ufuncs.  Tables are module-level constants computed once at
import time.  The chunk-sized kernels built on them are 1-D ``take`` gathers:
:func:`gf_mul_scalar` here, and the packed-lane matrix product in
:mod:`repro.ec.matrix`.
"""

from __future__ import annotations

import numpy as np

#: Primitive polynomial for GF(2^8): x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLY = 0x11D

#: Field order.
ORDER = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables for GF(2^8).

    ``exp`` is doubled in length so that ``exp[log[a] + log[b]]`` never needs
    an explicit modulo 255 for products of two field elements.
    """
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    exp[255:510] = exp[0:255]
    # log[0] is undefined; keep 0 and mask zero operands explicitly.
    return exp, log


GF_EXP, GF_LOG = _build_tables()

#: 256x256 full multiplication table; 64 KiB, lets gf_mul be a single gather.
GF_MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
_nz = np.arange(1, 256)
GF_MUL_TABLE[1:, 1:] = GF_EXP[(GF_LOG[_nz][:, None] + GF_LOG[_nz][None, :])]

#: one product row per scalar, sliced once (``gf_mul_scalar``'s gather source)
_MUL_ROWS = tuple(GF_MUL_TABLE)

#: the dtype every chunk and delta payload is held in; code that checks an
#: array against it keeps an array already of it as is (no ``np.asarray``)
U8 = np.dtype(np.uint8)

#: Multiplicative inverses (inv[0] left as 0; dividing by zero raises).
GF_INV_TABLE = np.zeros(256, dtype=np.uint8)
GF_INV_TABLE[1:] = GF_EXP[255 - GF_LOG[_nz]]
del _nz


def gf_add(a, b):
    """Field addition (== subtraction): bytewise XOR."""
    return np.bitwise_xor(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


def gf_mul(a, b):
    """Element-wise field multiplication via the 64 KiB product table."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return GF_MUL_TABLE[a, b]


def gf_mul_scalar(c: int, buf: np.ndarray) -> np.ndarray:
    """Multiply a whole buffer by the scalar ``c``.

    This is the hot kernel of parity-delta generation: one 1-D gather
    ``take(buf)`` from the scalar's 256-entry product row of
    ``GF_MUL_TABLE``, sliced once at import (``take`` skips the generic
    fancy-indexing set-up, about half the cost).
    """
    if not 0 <= c < 256:
        raise ValueError(f"scalar {c!r} outside GF(256)")
    if type(buf) is not np.ndarray:
        buf = np.asarray(buf)
    if buf.dtype is not U8:
        if buf.size and not 0 <= buf.min() <= buf.max() < 256:
            raise ValueError(f"buffer values {buf.min()}..{buf.max()} outside GF(256)")
        buf = buf.astype(np.uint8)
    if c == 0:
        return np.zeros_like(buf)
    if c == 1:
        return buf.copy()
    return _MUL_ROWS[c].take(buf)


def gf_pow(a: int, n: int) -> int:
    """``a`` raised to the ``n``-th power in the field."""
    if not 0 <= a < 256:
        raise ValueError(f"base {a!r} outside GF(256)")
    if a == 0:
        if n == 0:
            return 1
        if n < 0:
            raise ZeroDivisionError("0 has no negative powers in GF(256)")
        return 0
    return int(GF_EXP[(int(GF_LOG[a]) * n) % 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse of ``a``; raises on 0."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(GF_INV_TABLE[a])


def gf_div(a, b):
    """Element-wise field division ``a / b``; raises if any ``b`` is 0."""
    b = np.asarray(b, dtype=np.uint8)
    if np.any(b == 0):
        raise ZeroDivisionError("division by zero in GF(256)")
    return gf_mul(a, GF_INV_TABLE[b])
