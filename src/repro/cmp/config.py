"""Chip-multiprocessor configuration (Table 1 of the paper).

Two reference configurations are provided: the 8-core and the 64-core
CMP.  Power budget is 10 W per core; shared L2 capacity is 512 kB per
core, partitioned in 128 kB *cache regions*; each core may run between
0.8 and 4.0 GHz at 0.8-1.2 V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "KB",
    "MB",
    "CACHE_REGION_BYTES",
    "CoreConfig",
    "CMPConfig",
    "cmp_8core",
    "cmp_64core",
]

KB = 1024
MB = 1024 * KB

#: Futility-Scaling allocation granularity (Section 4.1.1): one region.
CACHE_REGION_BYTES = 128 * KB


@dataclass(frozen=True)
class CoreConfig:
    """Per-core microarchitectural parameters (Table 1, lower half).

    Most of these describe the 4-way out-of-order core the paper
    simulates in SESC.  The analytic core model consumes the frequency
    and voltage ranges directly; the pipeline parameters inform the
    plausible range of compute CPIs in the application suite and are
    validated by the configuration tests.
    """

    min_frequency_ghz: float = 0.8
    max_frequency_ghz: float = 4.0
    min_voltage: float = 0.8
    max_voltage: float = 1.2
    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_entries: int = 128
    int_registers: int = 160
    fp_registers: int = 160
    ld_queue_entries: int = 32
    st_queue_entries: int = 32
    issue_queue_entries: int = 32
    max_unresolved_branches: int = 24
    branch_mispredict_penalty_cycles: int = 9
    ras_entries: int = 32
    btb_entries: int = 512
    l1_size_bytes: int = 32 * KB
    l1_block_bytes: int = 32
    il1_latency_cycles: int = 2
    dl1_latency_cycles: int = 3
    l1_mshr_entries: int = 16


@dataclass(frozen=True)
class CMPConfig:
    """Whole-chip parameters (Table 1, upper half)."""

    num_cores: int
    power_budget_watts: float
    l2_capacity_bytes: int
    l2_associativity: int
    memory_channels: int
    core: CoreConfig = field(default_factory=CoreConfig)
    cache_region_bytes: int = CACHE_REGION_BYTES
    #: UMON shadow tags cover up to 16 regions (2 MB) per core.
    umon_max_regions: int = 16
    #: UMON dynamic sampling rate (1 of every 32 sets is shadowed).
    umon_sampling_rate: int = 32
    #: Re-allocation period (Section 4.3): the market runs every 1 ms.
    allocation_period_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.l2_capacity_bytes % self.cache_region_bytes != 0:
            raise ValueError("L2 capacity must be a whole number of cache regions")

    @property
    def umon_max_bytes(self) -> int:
        """Largest per-core partition the shadow tags can model (2 MB)."""
        return self.umon_max_regions * self.cache_region_bytes


def cmp_8core() -> CMPConfig:
    """The paper's 8-core configuration (80 W, 4 MB L2, 16-way)."""
    return CMPConfig(
        num_cores=8,
        power_budget_watts=80.0,
        l2_capacity_bytes=4 * MB,
        l2_associativity=16,
        memory_channels=2,
    )


def cmp_64core() -> CMPConfig:
    """The paper's 64-core configuration (640 W, 32 MB L2, 32-way)."""
    return CMPConfig(
        num_cores=64,
        power_budget_watts=640.0,
        l2_capacity_bytes=32 * MB,
        l2_associativity=32,
        memory_channels=16,
    )
