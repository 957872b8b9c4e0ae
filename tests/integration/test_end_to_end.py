"""Full-pipeline smoke tests: workload -> chip -> market -> simulation."""

import numpy as np
import pytest

from repro.cmp import ChipModel, cmp_8core
from repro.core import EqualBudget, ReBudgetMechanism
from repro.sim import ExecutionDrivenSimulator, SimulationConfig
from repro.workloads import classify, generate_bundles, profile_application, sensitivities


class TestPipeline:
    @pytest.fixture(scope="class")
    def chip(self):
        bundle = generate_bundles("BBCN", 8, count=1, seed=4)[0]
        return ChipModel(cmp_8core(), bundle.apps)

    def test_bundle_classes_verified_by_profiling(self, chip):
        # BBCN on 8 cores: two apps per category letter, in order.
        letters = [classify(sensitivities(profile_application(app))) for app in chip.apps]
        assert letters == ["B", "B", "B", "B", "C", "C", "N", "N"]

    def test_analytic_and_simulated_agree_in_sign(self, chip):
        problem = chip.build_problem()
        analytic_eq = EqualBudget().allocate(problem)
        analytic_rb = ReBudgetMechanism(step=40).allocate(problem)

        sim_cfg = SimulationConfig(duration_ms=5.0, seed=2)
        sim_eq = ExecutionDrivenSimulator(chip, EqualBudget(), sim_cfg).run()
        sim_rb = ExecutionDrivenSimulator(chip, ReBudgetMechanism(step=40), sim_cfg).run()

        # Phase 2 validates phase 1: if ReBudget helps analytically, the
        # measured run must agree (and vice versa), within noise.
        analytic_gain = analytic_rb.efficiency - analytic_eq.efficiency
        simulated_gain = sim_rb.efficiency - sim_eq.efficiency
        if abs(analytic_gain) > 0.05:
            assert np.sign(simulated_gain) == np.sign(analytic_gain)

    def test_monitored_efficiency_close_to_true(self, chip):
        # Monitoring noise costs a few percent, not tens of percent.
        cfg_true = SimulationConfig(duration_ms=5.0, use_monitors=False, seed=2)
        cfg_mon = SimulationConfig(duration_ms=5.0, use_monitors=True, seed=2)
        true = ExecutionDrivenSimulator(chip, EqualBudget(), cfg_true).run()
        mon = ExecutionDrivenSimulator(chip, EqualBudget(), cfg_mon).run()
        assert mon.efficiency == pytest.approx(true.efficiency, rel=0.15)
