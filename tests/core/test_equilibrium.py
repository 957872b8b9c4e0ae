"""The bidding-pricing equilibrium loop (Section 2.1)."""

import numpy as np
import pytest

from markets import make_market
from repro.core import ExactBidder, HillClimbBidder, equilibrium, find_equilibrium
from repro.core.equilibrium import _prices_stable
from repro.utility import LogUtility


def _symmetric_market(n=4):
    return make_market(
        [LogUtility([1.0, 1.0], [1.0, 1.0]) for _ in range(n)], [10.0, 5.0]
    )


class TestFindEquilibrium:
    def test_converges_and_allocates_everything(self, small_market):
        eq = find_equilibrium(small_market)
        assert eq.converged
        assert eq.iterations <= 30
        np.testing.assert_allclose(
            eq.state.allocations.sum(axis=0), small_market.capacities, rtol=1e-9
        )

    def test_symmetric_players_get_equal_shares(self):
        market = _symmetric_market()
        eq = find_equilibrium(market)
        assert eq.converged
        for j in range(2):
            col = eq.state.allocations[:, j]
            np.testing.assert_allclose(col, col[0], rtol=1e-6)

    def test_lambdas_positive_for_hungry_players(self, small_market):
        eq = find_equilibrium(small_market)
        assert np.all(eq.lambdas > 0.0)

    def test_fail_safe_iteration_cap(self, small_market, monkeypatch):
        monkeypatch.setattr(equilibrium, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(equilibrium, "PRICE_TOLERANCE", 1e-12)
        eq = find_equilibrium(small_market)
        assert eq.iterations == 1
        assert not eq.converged

    def test_price_history_recorded(self, small_market):
        eq = find_equilibrium(small_market)
        assert len(eq.price_history) == eq.iterations + 1

    def test_gauss_seidel_agrees_with_jacobi(self, small_market):
        jac = find_equilibrium(small_market, update="jacobi")
        gs = find_equilibrium(small_market, update="gauss-seidel")
        assert gs.efficiency == pytest.approx(jac.efficiency, rel=0.05)

    def test_rejects_unknown_update(self, small_market):
        with pytest.raises(ValueError):
            find_equilibrium(small_market, update="chaotic")

    def test_warm_start(self, small_market):
        cold = find_equilibrium(small_market)
        warm = find_equilibrium(small_market, warm_start=cold.warm_start)
        assert warm.iterations <= cold.iterations
        assert warm.efficiency == pytest.approx(cold.efficiency, rel=1e-2)

    def test_exact_bidder_supported(self, small_market):
        eq = find_equilibrium(small_market, bidder=ExactBidder())
        assert eq.converged
        assert eq.efficiency > 0.0

    def test_budget_constraint_respected(self, small_market):
        eq = find_equilibrium(small_market)
        spent = eq.state.bids.sum(axis=1)
        assert np.all(spent <= small_market.budgets + 1e-9)

    def test_higher_budget_buys_more(self):
        market = make_market(
            [LogUtility([1.0]), LogUtility([1.0])], [10.0], [200.0, 50.0]
        )
        eq = find_equilibrium(market)
        assert eq.state.allocations[0, 0] > eq.state.allocations[1, 0]
        # With identical single-resource utilities, allocation is exactly
        # budget-proportional.
        assert eq.state.allocations[0, 0] == pytest.approx(8.0)

    def test_efficiency_property(self, small_market):
        eq = find_equilibrium(small_market)
        assert eq.efficiency == pytest.approx(float(eq.utilities.sum()))


class TestPriceStability:
    def test_within_tolerance(self):
        assert _prices_stable(np.array([1.0, 2.0]), np.array([1.005, 2.01]), 0.01)

    def test_outside_tolerance(self):
        assert not _prices_stable(np.array([1.0]), np.array([1.1]), 0.01)

    def test_zero_prices_are_stable(self):
        assert _prices_stable(np.array([0.0]), np.array([0.0]), 0.01)
