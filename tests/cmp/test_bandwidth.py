"""The 3-resource (cache, power, bandwidth) extension."""

import numpy as np
import pytest

from repro.cmp import ChipModel, CoreModel, cmp_8core
from repro.cmp.bandwidth import (
    BandwidthAwareUtility,
    BandwidthModel,
    build_bandwidth_problem,
)
from repro.cmp.dram import DRAMModel
from repro.cmp.spec_suite import app_by_name
from repro.workloads import generate_bundles


@pytest.fixture(scope="module")
def cfg():
    return cmp_8core()


@pytest.fixture(scope="module")
def bw_model(cfg):
    return BandwidthModel(DRAMModel(channels=cfg.memory_channels))


class TestBandwidthModel:
    def test_latency_decreasing_in_allocation(self, bw_model):
        lats = [bw_model.latency_ns(4.0, b) for b in (4.5, 8.0, 16.0, 64.0)]
        assert all(a >= b for a, b in zip(lats, lats[1:]))

    def test_latency_floor(self, bw_model):
        assert bw_model.latency_ns(1.0, 1e9) == pytest.approx(
            bw_model.min_latency_ns, rel=1e-3
        )

    def test_overload_stays_finite(self, bw_model):
        assert np.isfinite(bw_model.latency_ns(100.0, 0.001))
        assert np.isfinite(bw_model.latency_ns(1.0, 0.0))

class TestBandwidthAwareUtility:
    @pytest.fixture(scope="class")
    def utility(self, cfg, bw_model):
        core = CoreModel(app_by_name("swim"), cfg)
        return BandwidthAwareUtility(core, bw_model, cfg, free_bandwidth_gbps=0.3)

    def test_three_resources(self, utility):
        assert utility.num_resources == 3

    def test_normalized(self, utility, cfg):
        # With everything maxed the utility approaches 1.
        v = utility.value((cfg.umon_max_bytes, 100.0, 1000.0))
        assert v == pytest.approx(1.0, abs=0.02)

    def test_monotone_along_each_axis(self, utility):
        base = np.array([256.0 * 1024, 4.0, 1.0])
        v0 = utility.value(base)
        for j, bump in enumerate((256.0 * 1024, 4.0, 2.0)):
            trial = base.copy()
            trial[j] += bump
            assert utility.value(trial) >= v0 - 1e-9, j

    def test_bandwidth_matters_for_memory_bound_app(self, cfg, bw_model):
        core = CoreModel(app_by_name("libquantum"), cfg)
        u = BandwidthAwareUtility(core, bw_model, cfg, free_bandwidth_gbps=0.3)
        starved = u.value((0.0, 2.0, 0.0))
        fed = u.value((0.0, 2.0, 8.0))
        assert fed > starved + 0.05

    def test_concave_along_bandwidth(self, utility):
        bws = np.linspace(0.0, 10.0, 9)
        vals = [utility.value((256.0 * 1024, 4.0, b)) for b in bws]
        slopes = np.diff(vals) / np.diff(bws)
        assert np.all(np.diff(slopes) <= 1e-6)


class TestThreeResourceMarket:
    @pytest.fixture(scope="class")
    def problem(self, cfg):
        bundle = generate_bundles("CPBN", 8, count=1, seed=9)[0]
        chip = ChipModel(cfg, bundle.apps)
        return build_bandwidth_problem(chip)

    def test_problem_shape(self, problem):
        assert problem.num_resources == 3
        assert problem.resource_names[2] == "bandwidth_gbps"
        assert np.all(problem.capacities > 0)

    def test_market_clears_three_resources(self, problem):
        from repro.core import EqualBudget

        result = EqualBudget().allocate(problem)
        np.testing.assert_allclose(
            result.allocations.sum(axis=0), problem.capacities, rtol=1e-6
        )
        assert result.converged

    def test_rebudget_knob_works_with_three_resources(self, problem):
        from repro.core import EqualBudget, ReBudgetMechanism

        eq = EqualBudget().allocate(problem)
        rb = ReBudgetMechanism(step=40).allocate(problem)
        assert rb.efficiency >= eq.efficiency - 1e-6
        assert rb.envy_freeness <= eq.envy_freeness + 1e-6
