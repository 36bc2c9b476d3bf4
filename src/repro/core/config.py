"""Store configuration shared by LogECMem and the erasure-coded baselines."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.params import HardwareProfile


@dataclass
class StoreConfig:
    """Parameters of one store instance.

    The paper's default setup (§6.2): 4 KiB values, one object per data chunk,
    (k, r) from {(6,3), (10,4), (12,4), (15,3)} plus large-scale k with r=4.

    ``payload_scale`` shrinks the *physical* bytes kept per chunk while all
    byte accounting stays at the logical sizes -- see DESIGN.md §2.
    """

    k: int = 6
    r: int = 3
    value_size: int = 4096
    chunk_size: int | None = None  # defaults to value_size (object == chunk)
    payload_scale: float = 1.0 / 16
    scheme: str = "plm"
    #: merge-based buffer logging (§4.3): collapse same-target records in the
    #: log-node buffer.  Off by default so the PL/PLR/PLR-m/PLM schemes keep
    #: their distinct disk behaviour; enable as the §4.3 ablation.
    merge_buffer: bool = False
    profile: HardwareProfile = field(default_factory=HardwareProfile)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.k + self.r > 256:
            raise ValueError(f"(k={self.k}, r={self.r}) exceeds GF(2^8) capacity")
        if self.chunk_size is None:
            self.chunk_size = self.value_size
        if self.value_size > self.chunk_size:
            raise ValueError(
                f"value_size {self.value_size} larger than chunk_size {self.chunk_size}"
            )

    @property
    def n(self) -> int:
        return self.k + self.r

    @property
    def n_log_nodes(self) -> int:
        """Log nodes in the HybridPL layout (the r-1 non-XOR parities)."""
        return max(0, self.r - 1)

    def phys_chunk_size(self) -> int:
        return max(1, round(self.chunk_size * self.payload_scale))
