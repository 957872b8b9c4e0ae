"""Engine corner modes: problem construction, warm-up, trace integrity."""

import numpy as np
import pytest

from recording import RecordingEqualBudget
from repro.cmp import ChipModel, cmp_8core
from repro.core import EqualBudget
from repro.cmp.spec_suite import app_by_name
from repro.sim import ContextSwitch, ExecutionDrivenSimulator, SimulationConfig
from repro.sim.engine import POWER_QUANTUM_WATTS
from repro.workloads import paper_bbpc_bundle


@pytest.fixture(scope="module")
def chip():
    return ChipModel(cmp_8core(), paper_bbpc_bundle().apps)


def _problems(chip, **config):
    mech = RecordingEqualBudget()
    ExecutionDrivenSimulator(chip, mech, SimulationConfig(seed=1, **config)).run()
    return mech.problems


class TestProblemConstruction:
    def test_monitored_problem_quanta(self, chip):
        problems = _problems(chip, duration_ms=2.0)
        assert POWER_QUANTUM_WATTS == 0.5
        assert len(problems) == 2
        for problem in problems:
            assert problem.quanta.tolist() == [chip.config.cache_region_bytes, 0.5]

    def test_true_utility_problem_matches_chip(self, chip):
        (problem,) = _problems(chip, duration_ms=1.0, use_monitors=False)
        reference = chip.build_problem()
        assert problem.capacities.tobytes() == reference.capacities.tobytes()
        assert problem.per_player_caps.tobytes() == reference.per_player_caps.tobytes()
        assert problem.player_names == reference.player_names
        assert all(a is b for a, b in zip(problem.utilities, reference.utilities))
        # Only the power quantum differs: 0.5 W against RAPL's 0.125 W.
        assert problem.quanta[0] == reference.quanta[0]
        assert (problem.quanta[1], reference.quanta[1]) == (POWER_QUANTUM_WATTS, 0.125)


class TestTrueUtilityCache:
    """Phase-1 runs build each application's true utility once per process."""

    @staticmethod
    def _count_builds(monkeypatch):
        """Empty the true-grid memo and record every application built."""
        from collections import OrderedDict

        import repro.cmp.utility_builder as builder

        built = []

        def counting(cores, *args, **kwargs):
            built.extend(core.app.name for core in cores)
            return real(cores, *args, **kwargs)

        real = builder.build_true_utilities
        monkeypatch.setattr(builder, "build_true_utilities", counting)
        monkeypatch.setattr(builder, "_TRUE_GRIDS", OrderedDict())
        return built

    def _run(self, chip, switches=(), **config):
        cfg = SimulationConfig(
            duration_ms=6.0, seed=1, context_switches=tuple(switches), **config
        )
        return ExecutionDrivenSimulator(chip, EqualBudget(), cfg).run()

    def test_one_build_per_core_then_one_per_switch(self, chip, monkeypatch):
        built = self._count_builds(monkeypatch)
        switches = (
            ContextSwitch(2.0, 3, app_by_name("mcf")),
            ContextSwitch(4.0, 5, app_by_name("vpr")),
        )
        self._run(chip, switches, use_monitors=False)
        # Six market epochs and the final EF scoring share the memo: each
        # application is built once, and mcf, already resident on cores 4
        # and 5, is not built again when it replaces swim on core 3.
        assert built == list(dict.fromkeys(app.name for app in chip.apps)) + ["vpr"]

    def test_monitored_run_builds_true_utilities_only_for_scoring(
        self, chip, monkeypatch
    ):
        built = self._count_builds(monkeypatch)
        self._run(chip)
        assert built == list(dict.fromkeys(app.name for app in chip.apps))

    def test_switch_to_memoized_app_keeps_outputs(self, chip, monkeypatch):
        """A switched-in application whose grid is already memoized
        yields the run a cold build yields, bit for bit."""
        built = self._count_builds(monkeypatch)
        switches = (ContextSwitch(3.0, 0, app_by_name("vpr")),)
        cold = self._run(chip, switches, use_monitors=False)
        assert built.count("vpr") == 1
        warm = self._run(chip, switches, use_monitors=False)
        assert built.count("vpr") == 1
        for a, b in zip(cold.trace.epochs, warm.trace.epochs):
            assert a.extras.tobytes() == b.extras.tobytes()
            assert a.instructions.tobytes() == b.instructions.tobytes()
        assert cold.utilities.tobytes() == warm.utilities.tobytes()
        assert cold.envy_freeness == warm.envy_freeness


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
