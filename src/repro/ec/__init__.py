"""Erasure-coding substrate: GF(2^8) arithmetic and Reed-Solomon codes.

This package replaces the Intel ISA-L codec used by the paper's prototype.
It provides:

* :mod:`repro.ec.gf256` -- vectorised Galois-field arithmetic over GF(2^8),
* :mod:`repro.ec.matrix` -- matrix algebra (multiply, invert) over GF(2^8),
* :mod:`repro.ec.rs` -- systematic (k, r) Reed-Solomon codes whose first
  parity row is all-ones (a true XOR parity, as LogECMem requires),
* :mod:`repro.ec.delta` -- the delta algebra of the paper's Properties 1 and 2
  (parity deltas from data deltas, and merging of multiple deltas).
"""

from repro.ec.gf256 import (
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_mul_scalar,
    gf_pow,
)
from repro.ec.matrix import gf_matinv, gf_matmul
from repro.ec.rs import RSCode
from repro.ec.delta import (
    DeltaRecord,
    ParityDelta,
    compute_delta,
    merge_parity_deltas,
    parity_delta_from_data_delta,
)

__all__ = [
    "DeltaRecord",
    "ParityDelta",
    "RSCode",
    "compute_delta",
    "gf_add",
    "gf_div",
    "gf_inv",
    "gf_matinv",
    "gf_matmul",
    "gf_mul",
    "gf_mul_scalar",
    "gf_pow",
    "merge_parity_deltas",
    "parity_delta_from_data_delta",
]
