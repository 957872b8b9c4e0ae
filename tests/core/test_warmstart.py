"""The epoch-to-epoch warm-start layer.

Three contracts, bottom to top:

* bidders honor ``current_bids`` (the latent contract bug: the paper's
  hill climb used to silently restart from an equal split every round);
* ``find_equilibrium`` consumes and produces :class:`WarmStart` state,
  terminating in a single verification round when the warm bids still
  clear the market, and reaching the same equilibrium as a cold search
  within the paper's 1% price tolerance;
* mechanisms carry warm state across ``allocate`` calls and drop it
  when the player set changes.
"""

import numpy as np
import pytest

from markets import best_response
from repro.core import (
    AllocationProblem,
    BalancedBudget,
    EqualBudget,
    HillClimbBidder,
    PriceTakingBidder,
    ReBudgetConfig,
    ReBudgetMechanism,
    WarmStart,
    find_equilibrium,
    run_rebudget,
)
from repro.utility import LogUtility, SaturatingUtility


@pytest.fixture
def market(small_market):
    """Three heterogeneous log-utility players over two resources."""
    return small_market


@pytest.fixture
def problem():
    # Demand is skewed toward cache so the cold search needs several
    # rounds of price movement; a mirror-symmetric player set would
    # cancel out and converge in one round, hiding the warm-start win.
    return AllocationProblem(
        utilities=[
            LogUtility([2.0, 0.4], [1.0, 1.0]),
            LogUtility([1.5, 0.6], [1.0, 1.0]),
            SaturatingUtility([0.3, 0.3], [1.0, 1.0]),
        ],
        capacities=np.array([10.0, 10.0]),
        resource_names=["cache", "power"],
        player_names=["a", "b", "c"],
        quanta=np.array([0.25, 0.25]),
    )


class TestHillClimbWarmStart:
    """HillClimbBidder honors ``current_bids`` (the contract bug)."""

    def setup_method(self):
        self.utility = LogUtility([1.0, 0.3], [1.0, 1.0])
        self.others = np.array([50.0, 50.0])
        self.capacities = np.array([10.0, 5.0])

    def test_optimum_is_a_fixed_point(self):
        bidder = HillClimbBidder()
        first = best_response(bidder, self.utility, 100.0, self.others, self.capacities)
        again = best_response(
            bidder, self.utility, 100.0, self.others, self.capacities, current_bids=first
        )
        # Resuming from an optimum must stay at the optimum.
        np.testing.assert_allclose(again, first, atol=1e-9)

    def test_warm_start_actually_used(self):
        # From a converged starting point with a tiny step hint the climb
        # cannot wander: the result stays within one minimal move.
        bidder = HillClimbBidder()
        opt = best_response(bidder, self.utility, 100.0, self.others, self.capacities)
        nudged = opt + np.array([0.5, -0.5])
        warm = best_response(
            bidder, self.utility,
            100.0,
            self.others,
            self.capacities,
            current_bids=nudged,
            step_hint=0.5,
        )
        assert np.abs(warm - nudged).max() <= 1.0 + 1e-9

    def test_budget_change_falls_back_to_equal_split(self):
        bidder = HillClimbBidder()
        stale = np.array([90.0, 10.0])  # sums to 100, budget is now 50
        warm = best_response(
            bidder, self.utility, 50.0, self.others, self.capacities, current_bids=stale
        )
        cold = best_response(bidder, self.utility, 50.0, self.others, self.capacities)
        np.testing.assert_allclose(warm, cold)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0.0, 0.0]),
            np.array([np.nan, 100.0]),
            np.array([100.0]),  # wrong shape
        ],
    )
    def test_malformed_current_bids_ignored(self, bad):
        bidder = HillClimbBidder()
        cold = best_response(bidder, self.utility, 100.0, self.others, self.capacities)
        warm = best_response(
            bidder, self.utility, 100.0, self.others, self.capacities, current_bids=bad
        )
        np.testing.assert_allclose(warm, cold)

    def test_budget_preserved(self):
        bidder = HillClimbBidder()
        bids = best_response(
            bidder, self.utility,
            80.0,
            self.others,
            self.capacities,
            current_bids=np.array([60.0, 20.0]),
            step_hint=5.0,
        )
        assert bids.sum() == pytest.approx(80.0)
        assert np.all(bids >= 0.0)


class TestPriceTakingWarmStart:
    def test_climb_starts_from_price_defining_bids(self):
        # The fix: the bids being optimized are the same bids the fixed
        # prices were derived from, so re-optimizing from an optimum is
        # (approximately) a fixed point rather than an equal-split jump.
        bidder = PriceTakingBidder()
        utility = LogUtility([1.0, 0.3], [1.0, 1.0])
        others = np.array([50.0, 50.0])
        caps = np.array([10.0, 5.0])
        bids = np.full(2, 50.0)
        for _ in range(30):
            bids = best_response(bidder, utility, 100.0, others, caps, current_bids=bids)
        settled = best_response(bidder, utility, 100.0, others, caps, current_bids=bids)
        assert np.abs(settled - bids).max() <= 2.0 + 1e-9


class TestFindEquilibriumWarmStart:
    def test_result_always_carries_warm_start(self, market):
        result = find_equilibrium(market)
        ws = result.warm_start
        assert isinstance(ws, WarmStart)
        np.testing.assert_allclose(ws.bids, result.state.bids)
        np.testing.assert_allclose(ws.budgets, market.budgets)
        assert ws.last_moves.shape == (market.num_players,)

    def test_warm_restart_converges_in_one_round(self, market):
        cold = find_equilibrium(market)
        warm = find_equilibrium(market, warm_start=cold.warm_start)
        assert warm.warm_started
        assert warm.converged
        assert warm.iterations == 1
        assert cold.iterations > warm.iterations

    def test_warm_matches_cold_within_price_tolerance(self, market):
        cold = find_equilibrium(market)
        warm = find_equilibrium(market, warm_start=cold.warm_start)
        np.testing.assert_allclose(
            warm.state.prices, cold.state.prices, rtol=0.01
        )
        np.testing.assert_allclose(
            warm.state.allocations, cold.state.allocations,
            atol=0.01 * market.capacities.max(),
        )

    def test_incompatible_warm_start_is_ignored(self, market):
        bogus = WarmStart(
            bids=np.ones((5, 3)),
            budgets=np.ones(5),
        )
        result = find_equilibrium(market, warm_start=bogus)
        cold = find_equilibrium(market)
        assert not result.warm_started
        np.testing.assert_allclose(result.state.bids, cold.state.bids)

    def test_bids_for_rescales_to_new_budgets(self, market):
        result = find_equilibrium(market)
        new_budgets = np.array([50.0, 200.0, 100.0])
        rescaled = result.warm_start.bids_for(new_budgets)
        np.testing.assert_allclose(rescaled.sum(axis=1), new_budgets)
        # Each player's split is preserved.
        old = result.warm_start.bids
        np.testing.assert_allclose(
            rescaled / rescaled.sum(axis=1, keepdims=True),
            old / old.sum(axis=1, keepdims=True),
            atol=1e-12,
        )

    def test_bids_for_wrong_player_count_returns_none(self, market):
        result = find_equilibrium(market)
        assert result.warm_start.bids_for(np.ones(7)) is None

    def test_zero_bid_row_falls_back_to_equal_split(self):
        ws = WarmStart(
            bids=np.array([[4.0, 6.0], [0.0, 0.0]]),
            budgets=np.array([10.0, 10.0]),
        )
        rescaled = ws.bids_for(np.array([10.0, 8.0]))
        np.testing.assert_allclose(rescaled[1], [4.0, 4.0])

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    def test_non_finite_bid_row_falls_back_to_equal_split(self, bad):
        # A row with any non-finite bid is not reused, even where
        # clamping it at 0 would leave a positive total.
        ws = WarmStart(
            bids=np.array([[bad, 3.0], [4.0, 6.0]]),
            budgets=np.array([10.0, 10.0]),
        )
        rescaled = ws.bids_for(np.array([10.0, 10.0]))
        assert rescaled.tolist() == [[5.0, 5.0], [4.0, 6.0]]

    def test_zero_budget_zero_row_stays_zero_without_warnings(self):
        ws = WarmStart(
            bids=np.zeros((2, 2)), budgets=np.zeros(2)
        )
        with np.errstate(all="raise"):
            rescaled = ws.bids_for(np.array([0.0, 6.0]))
        assert rescaled.tolist() == [[0.0, 0.0], [3.0, 3.0]]

    def test_warm_start_after_budget_change_still_converges(self, market):
        # A budget change degrades the seed (bids are rescaled, not
        # re-derived); the search must still converge, to a point in the
        # same tolerance band as a cold search.
        cold = find_equilibrium(market)
        market.budgets = [40.0, 100.0, 100.0]
        warm = find_equilibrium(market, warm_start=cold.warm_start)
        reference = find_equilibrium(market)
        assert warm.converged
        np.testing.assert_allclose(
            warm.state.prices, reference.state.prices, rtol=0.05
        )


class TestRunRebudgetWarmStart:
    def test_warm_seed_reduces_total_iterations(self, market):
        config = ReBudgetConfig(step=40.0)
        cold = run_rebudget(market, config)
        seed = cold.rounds[0].equilibrium.warm_start
        warm = run_rebudget(market, config, warm_start=seed)
        assert warm.total_equilibrium_iterations <= cold.total_equilibrium_iterations
        assert warm.mbr == pytest.approx(cold.mbr, abs=0.01)
        np.testing.assert_allclose(
            warm.final_budgets, cold.final_budgets, rtol=0.01
        )


class TestMechanismWarmState:
    ALLOC_BAND = 0.01  # fraction of capacity

    def test_equal_budget_reuses_state(self, problem):
        mech = EqualBudget()
        first = mech.allocate(problem)
        assert mech.warm_state is not None
        second = mech.allocate(problem)
        assert second.iterations < first.iterations
        np.testing.assert_allclose(
            second.allocations, first.allocations,
            atol=self.ALLOC_BAND * problem.capacities.max(),
        )

    def test_balanced_budget_reuses_state(self, problem):
        mech = BalancedBudget()
        first = mech.allocate(problem)
        second = mech.allocate(problem)
        assert second.iterations <= first.iterations
        np.testing.assert_allclose(
            second.allocations, first.allocations,
            atol=self.ALLOC_BAND * problem.capacities.max(),
        )

    def test_rebudget_mechanism_reuses_state(self, problem):
        mech = ReBudgetMechanism(step=30)
        first = mech.allocate(problem)
        second = mech.allocate(problem)
        assert second.iterations <= first.iterations
        np.testing.assert_allclose(
            second.allocations, first.allocations,
            atol=0.01 * problem.capacities.max(),
        )

    def test_reset_warm_state(self, problem):
        # A context switch swaps the problem out from under the
        # mechanism; the simulator drops the carried state.
        mech = EqualBudget()
        mech.allocate(problem)
        assert mech.warm_state is not None
        mech.reset_warm_state()
        assert mech.warm_state is None

    def test_state_invalidated_when_players_change(self, problem):
        mech = EqualBudget()
        mech.allocate(problem)
        different = AllocationProblem(
            utilities=[
                LogUtility([1.0, 1.0], [1.0, 1.0]),
                LogUtility([1.0, 0.2], [1.0, 1.0]),
            ],
            capacities=np.array([10.0, 10.0]),
            resource_names=["cache", "power"],
            player_names=["x", "y"],
            quanta=np.array([0.25, 0.25]),
        )
        # Different player set (and shape): the stale state must not be
        # consumed, and must be replaced by the new problem's state.
        assert not mech.warm_state.compatible_with(different.build_market([100.0] * 2))
        result = mech.allocate(different)
        assert result.allocations.shape == (2, 2)
        assert mech.warm_state.player_names == ("x", "y")

    def test_stale_state_detected_by_names(self, problem):
        # Same shape, different names (a player or a resource renamed):
        # the carried state is not reused, so the call searches cold.
        mech = EqualBudget()
        mech.allocate(problem)
        budgets = [100.0] * problem.num_players
        assert mech.warm_state.compatible_with(problem.build_market(budgets))
        for players, resources in [(["a", "b", "z"], ["cache", "power"]),
                                   (["a", "b", "c"], ["cache", "bandwidth"])]:
            renamed = AllocationProblem(
                utilities=problem.utilities,
                capacities=problem.capacities,
                resource_names=resources,
                player_names=players,
                quanta=problem.quanta,
            )
            assert not mech.warm_state.compatible_with(renamed.build_market(budgets))
            mech.allocate(problem)
            stale = mech.allocate(renamed)
            cold = EqualBudget().allocate(renamed)
            assert stale.iterations == cold.iterations > 1
            assert stale.allocations.tobytes() == cold.allocations.tobytes()
