"""Engine corner modes: problem construction, warm-up, trace integrity."""

import numpy as np
import pytest

from repro.cmp import ChipModel, cmp_8core
from repro.core import EqualBudget
from repro.cmp.spec_suite import app_by_name
from repro.sim import ContextSwitch, ExecutionDrivenSimulator, SimulationConfig
from repro.sim.engine import POWER_QUANTUM_WATTS
from repro.workloads import paper_bbpc_bundle


@pytest.fixture(scope="module")
def chip():
    return ChipModel(cmp_8core(), paper_bbpc_bundle().apps)


def _fresh_monitors(sim):
    from repro.cmp import RuntimeMonitor

    rng = np.random.default_rng(0)
    return [RuntimeMonitor(core, sim.chip.config, rng=rng) for core in sim._cores]


class TestProblemConstruction:
    def test_monitored_problem_quanta(self, chip):
        cfg = SimulationConfig(duration_ms=2.0, seed=1)
        sim = ExecutionDrivenSimulator(chip, EqualBudget(), cfg)
        problem = sim._build_problem(_fresh_monitors(sim))
        assert POWER_QUANTUM_WATTS == 0.5
        assert problem.quanta[1] == POWER_QUANTUM_WATTS

    def test_true_utility_problem_matches_chip(self, chip):
        cfg = SimulationConfig(duration_ms=1.0, seed=1, use_monitors=False)
        sim = ExecutionDrivenSimulator(chip, EqualBudget(), cfg)
        problem = sim._build_problem(monitors=[])
        reference = chip.build_problem()
        np.testing.assert_allclose(problem.capacities, reference.capacities)
        assert problem.player_names == reference.player_names


class TestTrueUtilityCache:
    """Phase-1 runs build each resident application's true utility once."""

    def _counted_run(self, chip, monkeypatch, **config):
        import repro.sim.engine as engine

        built = []

        def counting(cores, *args, **kwargs):
            built.extend(core.app.name for core in cores)
            return real(cores, *args, **kwargs)

        real = engine.build_true_utilities
        monkeypatch.setattr(engine, "build_true_utilities", counting)
        cfg = SimulationConfig(duration_ms=6.0, seed=1, **config)
        ExecutionDrivenSimulator(chip, EqualBudget(), cfg).run()
        return built

    def test_one_build_per_core_then_one_per_switch(self, chip, monkeypatch):
        switches = (
            ContextSwitch(2.0, 3, app_by_name("mcf")),
            ContextSwitch(4.0, 5, app_by_name("vpr")),
        )
        built = self._counted_run(
            chip, monkeypatch, use_monitors=False, context_switches=switches
        )
        # Six market epochs and the final EF scoring share the cache.
        assert built == [app.name for app in chip.apps] + ["mcf", "vpr"]

    def test_monitored_run_builds_true_utilities_only_for_scoring(
        self, chip, monkeypatch
    ):
        built = self._counted_run(chip, monkeypatch)
        assert built == [app.name for app in chip.apps]


class TestTraceIntegrity:
    @pytest.fixture(scope="class")
    def result(self, chip):
        cfg = SimulationConfig(duration_ms=5.0, seed=9)
        return ExecutionDrivenSimulator(chip, EqualBudget(), cfg).run()

    def test_epoch_timestamps(self, result):
        times = [r.time_ms for r in result.trace.epochs]
        np.testing.assert_allclose(times, np.arange(5.0))

    def test_dram_latency_at_least_uncontended(self, result, chip):
        base = chip.cores[0].dram.uncontended_latency_ns()
        for record in result.trace.epochs:
            assert record.dram_latency_ns >= base - 1e-9

    def test_power_within_chip_budget(self, result, chip):
        for record in result.trace.epochs:
            # Temperature excursions can push leakage slightly past the
            # nominal budget; the market keeps dynamic power in line.
            assert record.powers_w.sum() <= chip.config.power_budget_watts * 1.1

    def test_alone_reference_positive(self, result):
        assert np.all(result.alone_instructions > 0.0)
