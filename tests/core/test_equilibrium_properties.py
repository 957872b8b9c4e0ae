"""Property-based invariants of the market equilibrium.

Hypothesis generates random markets (players with random concave
utilities and budgets); every equilibrium the solver produces must
satisfy the structural invariants of Section 2 — full distribution,
budget feasibility, price consistency — and the realized metrics must
respect Theorems 1 and 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markets import make_market
from repro.core import (
    envy_freeness,
    find_equilibrium,
    market_budget_range,
    market_utility_range,
)
from repro.core.theory import ef_lower_bound
from repro.utility import LogUtility, PowerUtility

_weight = st.floats(min_value=0.05, max_value=5.0)
_budget = st.floats(min_value=10.0, max_value=200.0)


@st.composite
def random_markets(draw):
    num_players = draw(st.integers(min_value=2, max_value=6))
    utilities, budgets = [], []
    for _ in range(num_players):
        kind = draw(st.sampled_from(["log", "power"]))
        w = [draw(_weight), draw(_weight)]
        if kind == "log":
            utility = LogUtility(w, [1.0, 1.0])
        else:
            utility = PowerUtility(w, [0.5, 0.7])
        utilities.append(utility)
        budgets.append(draw(_budget))
    return make_market(utilities, [10.0, 4.0], budgets)


class TestEquilibriumInvariants:
    @given(random_markets())
    @settings(max_examples=40, deadline=None)
    def test_full_distribution_and_feasibility(self, market):
        eq = find_equilibrium(market)
        # Every unit of every resource is handed out (strictly positive
        # marginal utilities -> everyone bids on everything).
        np.testing.assert_allclose(
            eq.state.allocations.sum(axis=0), market.capacities, rtol=1e-9
        )
        # Nobody exceeds its budget.
        spent = eq.state.bids.sum(axis=1)
        assert np.all(spent <= market.budgets + 1e-9)
        # Prices reconstruct total bids (Equation 1).
        np.testing.assert_allclose(
            eq.state.prices * market.capacities, eq.state.bids.sum(axis=0), rtol=1e-9
        )

    @given(random_markets())
    @settings(max_examples=40, deadline=None)
    def test_allocations_proportional_to_bids(self, market):
        eq = find_equilibrium(market)
        bids = eq.state.bids
        totals = bids.sum(axis=0)
        for j in range(market.num_resources):
            if totals[j] > 0:
                shares = bids[:, j] / totals[j]
                np.testing.assert_allclose(
                    eq.state.allocations[:, j], shares * market.capacities[j], rtol=1e-9
                )

    @given(random_markets())
    @settings(max_examples=30, deadline=None)
    def test_theorem2_on_random_markets(self, market):
        eq = find_equilibrium(market)
        mbr = market_budget_range(market.budgets)
        realized = envy_freeness(market.problem.utilities, eq.state.allocations)
        assert realized >= ef_lower_bound(mbr) - 1e-6

    @given(random_markets())
    @settings(max_examples=30, deadline=None)
    def test_metrics_in_range(self, market):
        eq = find_equilibrium(market)
        assert 0.0 <= market_utility_range(eq.lambdas) <= 1.0
        assert eq.efficiency >= 0.0
        assert eq.iterations <= 30
