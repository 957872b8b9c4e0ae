"""Context switches: the 1 ms re-allocation loop earning its keep."""

import dataclasses

import numpy as np
import pytest

from recording import RecordingEqualBudget
from repro.cmp import ChipModel, cmp_8core
from repro.cmp.spec_suite import app_by_name
from repro.core import EqualBudget
from repro.sim import ContextSwitch, ExecutionDrivenSimulator, SimulationConfig
from repro.workloads import generate_bundles, paper_bbpc_bundle


@pytest.fixture(scope="module")
def chip():
    return ChipModel(cmp_8core(), paper_bbpc_bundle().apps)


def _run(chip, switches, duration=10.0, seed=5):
    cfg = SimulationConfig(
        duration_ms=duration, seed=seed, context_switches=tuple(switches)
    )
    return ExecutionDrivenSimulator(chip, EqualBudget(), cfg).run()


class TestContextSwitch:
    def test_validation(self, chip):
        with pytest.raises(ValueError):
            _run(chip, [ContextSwitch(1.0, 99, app_by_name("mcf"))])

    def test_chip_not_mutated(self, chip):
        before = [c.app.name for c in chip.cores]
        _run(chip, [ContextSwitch(2.0, 0, app_by_name("libquantum"))], duration=4.0)
        assert [c.app.name for c in chip.cores] == before

    def test_switch_changes_market_player(self, chip):
        # Swap core 0 (apsi) for povray: from the switch on, the market's
        # player list must reflect the new app.
        mech = RecordingEqualBudget()
        ExecutionDrivenSimulator(
            chip,
            mech,
            SimulationConfig(
                duration_ms=6.0,
                seed=5,
                context_switches=(ContextSwitch(3.0, 0, app_by_name("povray")),),
            ),
        ).run()
        first = [problem.player_names[0] for problem in mech.problems]
        assert first == ["apsi"] * 3 + ["povray"] * 3
        for problem in mech.problems:
            assert problem.player_names[1:] == [app.name for app in chip.apps[1:]]

    def test_rerun_repeats_the_first_run(self):
        # A second run() of one simulator starts from the caller's chip,
        # not from the chip its first run's context switch left.
        bundle = generate_bundles("CPBN", 8, count=1, seed=2016)[0]
        chip = ChipModel(cmp_8core(), bundle.apps)
        cfg = SimulationConfig(
            duration_ms=6.0,
            seed=3,
            context_switches=(ContextSwitch(3.0, 3, app_by_name("mcf")),),
        )
        sim = ExecutionDrivenSimulator(chip, EqualBudget(), cfg)
        runs = [sim.run(), sim.run(), ExecutionDrivenSimulator(chip, EqualBudget(), cfg).run()]
        first = runs[0]
        for again in runs[1:]:
            assert again.efficiency == first.efficiency
            assert again.envy_freeness == first.envy_freeness
            assert again.utilities.tobytes() == first.utilities.tobytes()
            assert again.alone_instructions.tobytes() == first.alone_instructions.tobytes()
            assert len(again.trace.epochs) == len(first.trace.epochs)
            for a, b in zip(again.trace.epochs, first.trace.epochs):
                for field in dataclasses.fields(a):
                    ours, theirs = getattr(a, field.name), getattr(b, field.name)
                    assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()

    def test_allocation_adapts_to_incoming_app(self, chip):
        # Replace a cache-hungry mcf (core 4) with a compute-bound
        # povray mid-run: the market should stop granting that core
        # cache and start granting it power.
        result = _run(
            chip,
            [ContextSwitch(5.0, 4, app_by_name("povray"))],
            duration=12.0,
        )
        cache_before = np.mean(
            [r.extras[4, 0] for r in result.trace.epochs if r.time_ms < 5.0]
        )
        cache_after = np.mean(
            [r.extras[4, 0] for r in result.trace.epochs if r.time_ms >= 8.0]
        )
        power_before = np.mean(
            [r.extras[4, 1] for r in result.trace.epochs if r.time_ms < 5.0]
        )
        power_after = np.mean(
            [r.extras[4, 1] for r in result.trace.epochs if r.time_ms >= 8.0]
        )
        assert cache_after < cache_before * 0.6
        assert power_after > power_before

    def test_switch_forces_reallocation_between_market_epochs(self, chip):
        # With reallocation_period_epochs=4 over 8 ms, the market runs
        # at epochs 0 and 4 only.  A context switch at 2 ms must force
        # an extra reallocation immediately (Section 4.3: the incoming
        # application cannot execute under the departed one's
        # allocation), not wait for the scheduled epoch 4.
        def run(switches):
            mech = RecordingEqualBudget()
            cfg = SimulationConfig(
                duration_ms=8.0,
                seed=5,
                reallocation_period_epochs=4,
                context_switches=tuple(switches),
            )
            ExecutionDrivenSimulator(chip, mech, cfg).run()
            return len(mech.problems)

        assert run([]) == 2  # scheduled epochs 0 and 4 only
        assert run([ContextSwitch(2.0, 0, app_by_name("povray"))]) == 3

    def test_run_completes_with_many_switches(self, chip):
        switches = [
            ContextSwitch(2.0, 0, app_by_name("lbm")),
            ContextSwitch(2.0, 1, app_by_name("gcc")),
            ContextSwitch(4.0, 0, app_by_name("mcf")),
        ]
        result = _run(chip, switches, duration=6.0)
        assert result.trace.num_epochs == 6
        assert np.all(result.utilities > 0.0)
