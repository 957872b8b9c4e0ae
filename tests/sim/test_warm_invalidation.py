"""Warm-state lifecycle in the epoch simulator, and config validation."""

import numpy as np
import pytest

from recording import RecordingEqualBudget
from repro.cmp import ChipModel, cmp_8core
from repro.cmp.spec_suite import app_by_name
from repro.core import EqualBudget
from repro.sim import ContextSwitch, ExecutionDrivenSimulator, SimulationConfig
from repro.workloads import paper_bbpc_bundle


class _ColdEqualBudget(EqualBudget):
    """EqualBudget that re-searches from an equal split on every call."""

    def allocate(self, problem):
        self.reset_warm_state()
        return super().allocate(problem)


@pytest.fixture(scope="module")
def chip():
    return ChipModel(cmp_8core(), paper_bbpc_bundle().apps)


class TestSimulationConfigValidation:
    def test_zero_epochs_rejected(self):
        # duration below half an epoch used to yield num_epochs == 0 and
        # silent 0/0 NaN utilities at the end of run().
        with pytest.raises(ValueError, match="zero epochs"):
            SimulationConfig(duration_ms=0.4, epoch_ms=1.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan")])
    def test_nonpositive_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration_ms"):
            SimulationConfig(duration_ms=duration)

    @pytest.mark.parametrize("epoch", [0.0, -0.5, float("inf")])
    def test_nonpositive_epoch_rejected(self, epoch):
        with pytest.raises(ValueError, match="epoch_ms"):
            SimulationConfig(duration_ms=5.0, epoch_ms=epoch)

    def test_zero_reallocation_period_rejected(self):
        with pytest.raises(ValueError, match="reallocation_period_epochs"):
            SimulationConfig(duration_ms=5.0, reallocation_period_epochs=0)

    def test_num_epochs(self):
        assert SimulationConfig(duration_ms=6.0, epoch_ms=1.0).num_epochs == 6
        assert SimulationConfig(duration_ms=0.6, epoch_ms=1.0).num_epochs == 1

    def test_valid_config_has_no_nan_utilities(self, chip):
        cfg = SimulationConfig(duration_ms=0.6, epoch_ms=1.0, seed=3)
        result = ExecutionDrivenSimulator(chip, EqualBudget(), cfg).run()
        assert np.all(np.isfinite(result.utilities))


class TestWarmStateLifecycle:
    def test_run_resets_inherited_state(self, chip):
        mech = EqualBudget()
        cfg = SimulationConfig(duration_ms=2.0, seed=7)
        ExecutionDrivenSimulator(chip, mech, cfg).run()
        assert mech.warm_state is not None
        carried = mech.warm_state
        # A second run on the same instance must not consume the first
        # run's state: run() drops it before the first epoch.
        sim = ExecutionDrivenSimulator(chip, mech, cfg)
        sim.run()
        assert mech.warm_state is not carried

    def test_context_switch_invalidates_warm_state(self, chip):
        mech = RecordingEqualBudget()
        cfg = SimulationConfig(
            duration_ms=6.0,
            seed=7,
            context_switches=(ContextSwitch(3.0, 0, app_by_name("povray")),),
        )
        ExecutionDrivenSimulator(chip, mech, cfg).run()
        # Epoch 3 fires the switch: the state carried from epoch 2 must
        # be dropped before that epoch's market run.
        assert mech.warm_states[3] is None
        assert mech.warm_states[2] is not None

    def test_warm_run_matches_cold_run_closely(self, chip):
        cfg = SimulationConfig(duration_ms=5.0, seed=9)
        warm = ExecutionDrivenSimulator(chip, EqualBudget(), cfg).run()
        cold = ExecutionDrivenSimulator(chip, _ColdEqualBudget(), cfg).run()
        # Same seed, same monitored trajectory: measured utilities agree
        # within the equilibrium tolerance, and warm epochs use no more
        # market iterations than cold ones.
        np.testing.assert_allclose(warm.utilities, cold.utilities, rtol=0.05)
        assert warm.mean_market_iterations <= cold.mean_market_iterations
