"""Table 1 configuration constants."""

import pytest

from repro.cmp import CACHE_REGION_BYTES, KB, MB, CMPConfig, cmp_8core, cmp_64core


class TestTable1:
    def test_8core_configuration(self):
        cfg = cmp_8core()
        assert cfg.num_cores == 8
        assert cfg.power_budget_watts == 80.0          # 10 W per core
        assert cfg.l2_capacity_bytes == 4 * MB
        assert cfg.l2_associativity == 16
        assert cfg.memory_channels == 2

    def test_64core_configuration(self):
        cfg = cmp_64core()
        assert cfg.num_cores == 64
        assert cfg.power_budget_watts == 640.0
        assert cfg.l2_capacity_bytes == 32 * MB
        assert cfg.l2_associativity == 32
        assert cfg.memory_channels == 16

    def test_core_envelope(self):
        core = cmp_8core().core
        assert core.min_frequency_ghz == 0.8
        assert core.max_frequency_ghz == 4.0
        assert core.min_voltage == 0.8
        assert core.max_voltage == 1.2
        assert core.fetch_width == core.issue_width == core.commit_width == 4
        assert core.rob_entries == 128
        assert core.int_registers == core.fp_registers == 160
        assert core.l1_size_bytes == 32 * KB
        assert core.branch_mispredict_penalty_cycles == 9

    def test_cache_region_is_128kb(self):
        assert CACHE_REGION_BYTES == 128 * KB

    def test_derived_quantities(self):
        cfg = cmp_8core()
        assert cfg.umon_max_bytes == 2 * MB           # 16 regions
        assert cfg.umon_sampling_rate == 32
        assert cfg.allocation_period_ms == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CMPConfig(
                num_cores=0,
                power_budget_watts=10.0,
                l2_capacity_bytes=MB,
                l2_associativity=8,
                memory_channels=1,
            )
        with pytest.raises(ValueError):
            CMPConfig(
                num_cores=2,
                power_budget_watts=10.0,
                l2_capacity_bytes=MB + 1,
                l2_associativity=8,
                memory_channels=1,
            )
