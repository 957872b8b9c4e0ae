"""The per-core runtime utility monitor."""

import numpy as np
import pytest

from repro.cmp import ChipModel, CoreModel, RuntimeMonitor, cmp_8core
from repro.cmp.spec_suite import app_by_name


@pytest.fixture(scope="module")
def cfg():
    return cmp_8core()


def _monitor(cfg, name="vpr", seed=3):
    core = CoreModel(app_by_name(name), cfg)
    return RuntimeMonitor(core, cfg, rng=np.random.default_rng(seed))


class TestMissCurveEstimation:
    def test_prior_is_pessimistic(self, cfg):
        monitor = _monitor(cfg)
        assert np.all(monitor.miss_curve == 1.0)

    def test_estimate_close_to_true_after_observation(self, cfg):
        monitor = _monitor(cfg)
        for _ in range(6):
            monitor.observe_epoch(2e6)
        true = np.array(
            [
                monitor.core.app.mrc.miss_fraction((k + 1) * cfg.cache_region_bytes)
                for k in range(cfg.umon_max_regions)
            ]
        )
        np.testing.assert_allclose(monitor.miss_curve, true, atol=0.06)

    def test_smoothing_across_epochs(self, cfg):
        monitor = _monitor(cfg)
        monitor.observe_epoch(2e6)
        first = monitor.miss_curve
        monitor.observe_epoch(2e6)
        second = monitor.miss_curve
        # Half the weight stays on history: the estimate moves slowly.
        assert np.max(np.abs(second - first)) < 0.2
        fresh = monitor.umon.miss_curve()
        np.testing.assert_array_equal(second, 0.5 * first + 0.5 * fresh)

    def test_zero_instruction_epoch_keeps_estimate(self, cfg):
        monitor = _monitor(cfg)
        monitor.observe_epoch(2e6)
        before = monitor.miss_curve
        monitor.observe_epoch(0.0)
        np.testing.assert_allclose(monitor.miss_curve, before)


class TestCpiEstimate:
    def test_noisy_but_near_truth(self, cfg):
        monitor = _monitor(cfg)
        estimates = []
        for _ in range(30):
            monitor.observe_epoch(1e6)
            estimates.append(monitor.cpi_estimate)
        true = monitor.core.app.cpi_exe
        assert np.mean(estimates) == pytest.approx(true, rel=0.05)
        assert np.std(estimates) > 0.0


class TestEstimatedUtility:
    def test_concave_along_axes(self, cfg):
        monitor = _monitor(cfg, name="mcf")
        for _ in range(3):
            monitor.observe_epoch(2e6)
        u = monitor.estimated_utility()
        assert np.all(np.diff(u.values, n=2, axis=0) <= 1e-9)
        assert np.all(np.diff(u.values, n=2, axis=1) <= 1e-9)

    def test_cached_within_epoch(self, cfg):
        monitor = _monitor(cfg)
        monitor.observe_epoch(2e6)
        assert monitor.estimated_utility() is monitor.estimated_utility()

    def test_invalidated_by_new_epoch(self, cfg):
        monitor = _monitor(cfg)
        monitor.observe_epoch(2e6)
        u1 = monitor.estimated_utility()
        monitor.observe_epoch(2e6)
        assert monitor.estimated_utility() is not u1

    def test_estimate_tracks_true_utility(self, cfg):
        monitor = _monitor(cfg, name="vpr")
        for _ in range(6):
            monitor.observe_epoch(2e6)
        from repro.cmp.utility_builder import build_true_utility

        true = build_true_utility(monitor.core, cfg)
        est = monitor.estimated_utility()
        chip = ChipModel(cfg, [monitor.core.app] * cfg.num_cores)
        cache_cap, power_cap = chip.per_core_caps[0]
        for c in (0.0, cache_cap / 2, cache_cap):
            for p in (0.0, power_cap / 2, power_cap):
                assert est.value((c, p)) == pytest.approx(
                    true.value((c, p)), abs=0.12
                )
