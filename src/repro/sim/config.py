"""Machine configuration (paper §4.3's processor, both ISAs).

The paper's machine: 16-wide issue, dynamically scheduled (HPS), up to 32
atomic blocks / 512 operations in flight, 16 uniform function units with
Table-1 latencies, 16 KB L1 dcache, perfect L2 with 6-cycle access, L1
icache varied 16–64 KB (4-way), Two-Level Adaptive branch prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache; ``None`` in MachineConfig means perfect."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64

    def __post_init__(self):
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class MachineConfig:
    """Shared configuration for both processor models."""

    issue_width: int = 16
    fu_count: int = 16
    window_ops: int = 512
    window_blocks: int = 32
    retire_width: int = 16
    #: contiguous icache lines fetchable per cycle
    fetch_lines: int = 2
    #: decode/rename depth between fetch and dispatch, cycles
    frontend_depth: int = 3
    #: extra refill bubbles after a misprediction resolves
    mispredict_penalty: int = 2
    #: L2 access time (both caches; L2 itself is perfect) — paper: 6
    l2_latency: int = 6
    icache: CacheConfig | None = field(
        default_factory=lambda: CacheConfig(64 * 1024, 4)
    )
    dcache: CacheConfig | None = field(
        default_factory=lambda: CacheConfig(16 * 1024, 4)
    )
    #: perfect branch/block prediction (Figure 4)
    perfect_bp: bool = False
    #: conventional-predictor geometry
    bp_history_bits: int = 12
    bp_table_bits: int = 14

    def __post_init__(self):
        # Checked even under perfect prediction: the perfect conventional
        # stream is derived from the real one captured at this geometry.
        if not 0 <= self.bp_history_bits <= self.bp_table_bits:
            raise ConfigError(
                f"bp_history_bits must be in [0, bp_table_bits="
                f"{self.bp_table_bits}], got {self.bp_history_bits}"
            )

    def with_icache_kb(self, kb: int | None) -> "MachineConfig":
        """This config with a different icache size (None = perfect)."""
        if kb is None:
            return replace(self, icache=None)
        return replace(self, icache=CacheConfig(kb * 1024, 4))

    def with_perfect_bp(self, perfect: bool = True) -> "MachineConfig":
        return replace(self, perfect_bp=perfect)


#: The paper's headline configuration (Figure 3): 64 KB 4-way icache.
PAPER_CONFIG = MachineConfig()
