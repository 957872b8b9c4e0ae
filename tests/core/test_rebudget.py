"""The ReBudget reassignment loop (Section 4.2)."""

import numpy as np
import pytest

from markets import make_market
from repro.core import ReBudgetConfig, run_rebudget
from repro.core.theory import ef_lower_bound, min_mbr_for_envy_freeness
from repro.exceptions import MarketConfigurationError
from repro.utility import LogUtility, SaturatingUtility


def _heterogeneous_market():
    """One hungry player, one nearly saturated player, one flat player.

    The flat player's lambda is far below the hungry one's, so ReBudget
    must cut its budget.
    """
    hungry = LogUtility([5.0, 5.0], [5.0, 5.0])
    modest = LogUtility([1.0, 1.0], [1.0, 1.0])
    flat = SaturatingUtility([0.05, 0.05], [0.5, 0.5])
    return make_market([hungry, modest, flat], [10.0, 10.0])


class TestReBudgetConfig:
    def test_explicit_step(self):
        step, floor = ReBudgetConfig(step=20.0).resolve()
        assert step == 20.0
        assert floor == 0.0

    def test_envy_freeness_target_derives_step_and_floor(self):
        cfg = ReBudgetConfig(min_envy_freeness=0.5)
        step, floor = cfg.resolve()
        mbr = min_mbr_for_envy_freeness(0.5)
        assert floor == pytest.approx(mbr * 100.0)
        assert step == pytest.approx((1.0 - mbr) * 100.0 / 2.0)

    def test_needs_step_or_target(self):
        with pytest.raises(MarketConfigurationError):
            ReBudgetConfig().resolve()

    def test_validation(self):
        with pytest.raises(MarketConfigurationError):
            ReBudgetConfig(step=-1.0).resolve()
        with pytest.raises(MarketConfigurationError):
            ReBudgetConfig(step=1.0, initial_budget=0.0).resolve()
        with pytest.raises(MarketConfigurationError):
            ReBudgetConfig(step=1.0, lambda_threshold=1.5).resolve()
        with pytest.raises(MarketConfigurationError):
            ReBudgetConfig(step=1.0, backoff=1.0).resolve()

    @pytest.mark.parametrize("step", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_step(self, step):
        # NaN used to fail deep in the market ("bids must be finite") and
        # inf to cut a budget straight to the floor; both are rejected
        # up front, naming the step.
        with pytest.raises(MarketConfigurationError, match="step must be positive and finite"):
            ReBudgetConfig(step=step).resolve()
        with pytest.raises(MarketConfigurationError, match="step must be positive and finite"):
            run_rebudget(_heterogeneous_market(), ReBudgetConfig(step=step))


class TestReBudgetRun:
    def test_cuts_low_lambda_players(self):
        market = _heterogeneous_market()
        result = run_rebudget(market, ReBudgetConfig(step=20.0))
        budgets = result.final_budgets
        # The flat player must have been cut; the hungry one must not.
        assert budgets[2] < 100.0
        assert budgets[0] == pytest.approx(100.0)

    def test_paper_budget_schedule(self):
        # With step=20 and stop at 1% of 100, cuts are 20+10+5+2.5+1.25,
        # so a player cut every round ends at 61.25 (Section 6.1.3).
        market = _heterogeneous_market()
        result = run_rebudget(market, ReBudgetConfig(step=20.0))
        always_cut_floor = 100.0 - (20.0 + 10.0 + 5.0 + 2.5 + 1.25)
        assert np.all(result.final_budgets >= always_cut_floor - 1e-9)
        assert result.final_budgets.min() == pytest.approx(61.25)

    def test_budgets_never_exceed_initial(self):
        market = _heterogeneous_market()
        result = run_rebudget(market, ReBudgetConfig(step=40.0))
        for r in result.rounds:
            assert np.all(r.budgets <= 100.0 + 1e-9)

    def test_mbr_floor_enforced(self):
        market = _heterogeneous_market()
        cfg = ReBudgetConfig(min_envy_freeness=0.6)
        result = run_rebudget(market, cfg)
        mbr_floor = min_mbr_for_envy_freeness(0.6)
        assert result.mbr >= mbr_floor - 1e-9
        # Theorem 2: the realized EF guarantee is at least the target.
        assert result.guaranteed_envy_freeness >= 0.6 - 1e-9

    def test_overshooting_step_cuts_onto_floor(self):
        # step=50 overshoots the MBR floor derived from the fairness
        # target (69 of 100): a full cut would land at 50, below the
        # floor.  The guard used to skip such players entirely, leaving
        # low-lambda budgets stranded at 100 and the configured fairness
        # knob without effect; a partial cut must land exactly on the
        # floor instead.
        market = _heterogeneous_market()
        cfg = ReBudgetConfig(min_envy_freeness=0.6, step=50.0)
        floor = min_mbr_for_envy_freeness(0.6) * 100.0
        assert 100.0 - 50.0 < floor  # the full step does cross the floor
        result = run_rebudget(market, cfg)
        assert result.rounds[0].cut_players  # the cut happened anyway
        assert result.final_budgets.min() == pytest.approx(floor)
        assert np.all(result.final_budgets >= floor - 1e-9)
        assert result.guaranteed_envy_freeness >= 0.6 - 1e-9

    def test_efficiency_non_decreasing_vs_equal_budget(self):
        market = _heterogeneous_market()
        result = run_rebudget(market, ReBudgetConfig(step=40.0))
        first = result.rounds[0].efficiency  # equal budgets
        assert result.efficiency >= first - 1e-6

    def test_mur_improves_or_holds(self):
        market = _heterogeneous_market()
        result = run_rebudget(market, ReBudgetConfig(step=40.0))
        assert result.mur >= result.rounds[0].mur - 0.05

    def test_final_round_reflects_last_cuts(self):
        market = _heterogeneous_market()
        result = run_rebudget(market, ReBudgetConfig(step=20.0))
        last = result.rounds[-1]
        np.testing.assert_allclose(last.budgets, market.budgets)
        # The final recorded round makes no further cuts.
        assert last.cut_players == []

    def test_round_budgets_do_not_alias(self):
        # A cut assigns a new budget array, so a round's budgets and the
        # warm start its equilibrium hands on keep the values that round
        # was solved at.
        market = _heterogeneous_market()
        result = run_rebudget(market, ReBudgetConfig(step=20.0))
        assert result.rounds[0].cut_players
        np.testing.assert_array_equal(result.rounds[0].budgets, 100.0)
        for r in result.rounds:
            np.testing.assert_array_equal(r.equilibrium.warm_start.budgets, r.budgets)

    def test_quiescent_market_stops_immediately(self, small_market):
        # Symmetric-ish log players: lambdas are close, nobody is below
        # half the max, so the loop ends after one round.
        result = run_rebudget(small_market, ReBudgetConfig(step=20.0))
        assert len(result.rounds) == 1
        np.testing.assert_allclose(result.final_budgets, 100.0)

    def test_total_iterations_accumulates(self):
        market = _heterogeneous_market()
        result = run_rebudget(market, ReBudgetConfig(step=20.0))
        assert result.total_equilibrium_iterations == sum(
            r.equilibrium.iterations for r in result.rounds
        )

    def test_history_records_lambdas_and_metrics(self):
        market = _heterogeneous_market()
        result = run_rebudget(market, ReBudgetConfig(step=20.0))
        for r in result.rounds:
            assert r.lambdas.shape == (3,)
            assert 0.0 <= r.mur <= 1.0
            assert 0.0 <= r.mbr <= 1.0
            assert r.efficiency > 0.0

    def test_realized_ef_respects_theorem2(self):
        market = _heterogeneous_market()
        result = run_rebudget(market, ReBudgetConfig(step=40.0))
        eq = result.final_equilibrium
        from repro.core import envy_freeness

        realized = envy_freeness(market.problem.utilities, eq.state.allocations)
        assert realized >= ef_lower_bound(result.mbr) - 1e-9
