"""Failure injection and degenerate markets.

The market layer must stay well-behaved when players are broke,
indifferent, or alone, and when resources attract no bids at all.
"""

import warnings

import numpy as np
import pytest

from markets import make_market
from repro.core import (
    AllocationProblem,
    ElasticitiesProportional,
    EqualBudget,
    ReBudgetConfig,
    find_equilibrium,
    run_rebudget,
)
from repro.utility import LinearUtility, LogUtility, SaturatingUtility


class TestDegenerateMarkets:
    def test_single_player_takes_everything(self):
        market = make_market([LogUtility([1.0, 1.0])], [8.0, 4.0], 50.0)
        eq = find_equilibrium(market)
        np.testing.assert_allclose(eq.state.allocations[0], [8.0, 4.0])

    def test_broke_player_gets_nothing(self):
        market = make_market(
            [LogUtility([1.0]), LogUtility([1.0])], [8.0], [100.0, 0.0]
        )
        eq = find_equilibrium(market)
        assert eq.state.allocations[1, 0] == 0.0
        assert eq.state.allocations[0, 0] == pytest.approx(8.0)

    def test_indifferent_player_leaves_resource_to_others(self):
        market = make_market(
            [LinearUtility([1.0, 0.0]), LinearUtility([0.0, 1.0])], [8.0, 4.0]
        )
        eq = find_equilibrium(market)
        # Each specialist ends up with (almost) all of its resource.
        assert eq.state.allocations[0, 0] > 7.5
        assert eq.state.allocations[1, 1] > 3.75

    def test_fully_saturated_market_is_stable(self):
        # Everyone's utility is flat at their current holdings: lambdas
        # are 0, MUR degenerates to 1, ReBudget does nothing.
        market = make_market(
            [SaturatingUtility([1.0, 1.0], [1e-6, 1e-6]) for _ in range(3)],
            [8.0, 4.0],
        )
        result = run_rebudget(market, ReBudgetConfig(step=20.0))
        np.testing.assert_allclose(result.final_budgets, 100.0)
        assert result.mur == 1.0

    def test_zero_budget_everywhere(self):
        market = make_market([LogUtility([1.0]) for _ in range(2)], [8.0], 0.0)
        eq = find_equilibrium(market)
        assert eq.state.allocations.sum() == 0.0
        assert eq.converged  # zero prices are stable prices


class TestProblemEdgeCases:
    def test_single_resource_problem(self):
        problem = AllocationProblem(
            utilities=[LogUtility([1.0]), LogUtility([2.0])],
            capacities=np.array([10.0]),
            resource_names=["cache"],
            player_names=["a", "b"],
            quanta=np.array([0.1]),
        )
        result = EqualBudget().allocate(problem)
        assert result.allocations.shape == (2, 1)
        np.testing.assert_allclose(result.allocations.sum(), 10.0)

    def test_many_players_few_resources(self):
        n = 32
        problem = AllocationProblem(
            utilities=[LogUtility([1.0, 1.0]) for _ in range(n)],
            capacities=np.array([10.0, 10.0]),
            resource_names=["cache", "power"],
            player_names=[f"p{i}" for i in range(n)],
        )
        result = EqualBudget().allocate(problem)
        # Symmetric players: near-equal split.
        np.testing.assert_allclose(
            result.allocations, 10.0 / n, rtol=0.05
        )
        assert result.envy_freeness > 0.9

    def test_ep_zero_capacity_resource(self):
        problem = AllocationProblem(
            utilities=[LogUtility([1.0, 1.0]), LogUtility([2.0, 1.0])],
            capacities=np.array([4.0, 0.0]),
            resource_names=["cache", "power"],
            player_names=["a", "b"],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = ElasticitiesProportional().allocate(problem)
        np.testing.assert_array_equal(result.allocations[:, 1], 0.0)
        np.testing.assert_allclose(result.allocations[:, 0].sum(), 4.0)
        assert np.all(np.isfinite(result.details["elasticities"]))
