"""The execution-driven simulator, end to end on small configurations."""

import numpy as np
import pytest

from repro.core import EqualBudget, EqualShare, ReBudgetMechanism
from repro.sim import ExecutionDrivenSimulator, SimulationConfig


@pytest.fixture(scope="module")
def short_cfg():
    return SimulationConfig(duration_ms=6.0, seed=11)


@pytest.fixture(scope="module")
def equalbudget_result(bbpc_chip_module, short_cfg):
    sim = ExecutionDrivenSimulator(bbpc_chip_module, EqualBudget(), short_cfg)
    return sim.run()


@pytest.fixture(scope="module")
def bbpc_chip_module():
    from repro.cmp import ChipModel, cmp_8core
    from repro.workloads import paper_bbpc_bundle

    return ChipModel(cmp_8core(), paper_bbpc_bundle().apps)


class TestSimulationRun:
    def test_epoch_count(self, equalbudget_result, short_cfg):
        assert equalbudget_result.trace.num_epochs == 6

    def test_utilities_positive_and_bounded(self, equalbudget_result):
        assert np.all(equalbudget_result.utilities > 0.0)
        # Measured utility can exceed 1 only via noise; loosely bounded.
        assert np.all(equalbudget_result.utilities <= 1.2)

    def test_cache_occupancy_conserved(self, equalbudget_result, bbpc_chip_module):
        for record in equalbudget_result.trace.epochs:
            assert record.cache_occupancy.sum() == pytest.approx(
                bbpc_chip_module.config.l2_capacity_bytes, rel=1e-6
            )

    def test_frequencies_within_envelope(self, equalbudget_result):
        for record in equalbudget_result.trace.epochs:
            assert np.all(record.frequencies_ghz >= 0.8 - 1e-9)
            assert np.all(record.frequencies_ghz <= 4.0 + 1e-9)

    def test_extras_within_capacity(self, equalbudget_result, bbpc_chip_module):
        for record in equalbudget_result.trace.epochs:
            assert record.extras[:, 0].sum() <= (
                bbpc_chip_module.extra_cache_capacity + 1e-6
            )
            assert record.extras[:, 1].sum() <= (
                bbpc_chip_module.extra_power_capacity + 1e-6
            )

    def test_temperatures_physically_plausible(self, equalbudget_result):
        # Every core moves toward its own steady state: hot cores heat up,
        # lightly loaded ones cool; all stay in a sane silicon range.
        for record in equalbudget_result.trace.epochs:
            assert np.all(record.temperatures_c > 45.0)
            assert np.all(record.temperatures_c < 110.0)
        first = equalbudget_result.trace.epochs[0].temperatures_c
        last = equalbudget_result.trace.epochs[-1].temperatures_c
        assert not np.allclose(first, last)  # thermals actually evolve

    def test_envy_freeness_in_unit_interval(self, equalbudget_result):
        assert 0.0 <= equalbudget_result.envy_freeness <= 1.0

    def test_efficiency_is_sum(self, equalbudget_result):
        assert equalbudget_result.efficiency == pytest.approx(
            float(equalbudget_result.utilities.sum())
        )


class TestMechanismComparison:
    def test_market_beats_equal_share(self, bbpc_chip_module, short_cfg):
        share = ExecutionDrivenSimulator(
            bbpc_chip_module, EqualShare(), short_cfg
        ).run()
        market = ExecutionDrivenSimulator(
            bbpc_chip_module, EqualBudget(), short_cfg
        ).run()
        assert market.efficiency > share.efficiency

    def test_deterministic_given_seed(self, bbpc_chip_module, short_cfg):
        a = ExecutionDrivenSimulator(bbpc_chip_module, EqualShare(), short_cfg).run()
        b = ExecutionDrivenSimulator(bbpc_chip_module, EqualShare(), short_cfg).run()
        np.testing.assert_allclose(a.utilities, b.utilities)


class TestConfigKnobs:
    def test_true_utilities_mode(self, bbpc_chip_module):
        cfg = SimulationConfig(duration_ms=3.0, use_monitors=False, seed=1)
        result = ExecutionDrivenSimulator(bbpc_chip_module, EqualBudget(), cfg).run()
        assert result.trace.num_epochs == 3

    def test_reallocation_period(self, bbpc_chip_module):
        cfg = SimulationConfig(duration_ms=4.0, reallocation_period_epochs=2, seed=1)
        result = ExecutionDrivenSimulator(bbpc_chip_module, EqualBudget(), cfg).run()
        assert result.trace.num_epochs == 4

    def test_rebudget_in_simulation(self, bbpc_chip_module):
        cfg = SimulationConfig(duration_ms=3.0, seed=1)
        result = ExecutionDrivenSimulator(
            bbpc_chip_module, ReBudgetMechanism(step=40), cfg
        ).run()
        assert result.mechanism == "ReBudget-40"
        assert result.converged_fraction > 0.5
