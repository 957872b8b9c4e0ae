"""Price-taking vs price-anticipating bidders.

Economic folklore the implementation should reproduce: anticipating
one's own price impact matters in small markets and washes out in large
ones (each player's bid is a vanishing share of the price).
"""

import numpy as np
import pytest

from markets import best_response, make_market
from repro.core import HillClimbBidder, PriceTakingBidder, find_equilibrium
from repro.utility import LogUtility


def _market(n, weights=None):
    utilities = []
    for i in range(n):
        w = weights[i] if weights else [1.0 + (i % 3), 1.0 + ((i + 1) % 3)]
        utilities.append(LogUtility(w, [1.0, 1.0]))
    return make_market(utilities, [10.0, 5.0])


class TestPriceTakingBidder:
    def test_spends_at_most_budget(self):
        bidder = PriceTakingBidder()
        bids = best_response(
            bidder, LogUtility([2.0, 1.0]), 100.0, np.array([50.0, 50.0]), np.array([10.0, 5.0])
        )
        assert bids.sum() <= 100.0 + 1e-9
        assert np.all(bids >= 0.0)

    def test_single_resource(self):
        bids = best_response(
            PriceTakingBidder(), LogUtility([1.0]), 40.0, np.array([10.0]), np.array([5.0])
        )
        np.testing.assert_allclose(bids, [40.0])

    def test_zero_budget(self):
        bids = best_response(
            PriceTakingBidder(), LogUtility([1.0, 1.0]), 0.0, np.array([1.0, 1.0]), np.array([5.0, 5.0])
        )
        np.testing.assert_allclose(bids, 0.0)

    def test_shifts_toward_valuable_resource(self):
        bids = best_response(
            PriceTakingBidder(), LogUtility([5.0, 0.1]), 100.0, np.array([50.0, 50.0]), np.array([10.0, 10.0])
        )
        assert bids[0] > bids[1]


class TestAnticipationEffect:
    def test_large_market_agreement(self):
        # With 12 players, one bid barely moves prices: the two bidder
        # models converge to nearly the same equilibrium welfare.
        anticipating = find_equilibrium(_market(12), bidder=HillClimbBidder())
        taking = find_equilibrium(_market(12), bidder=PriceTakingBidder())
        assert taking.efficiency == pytest.approx(anticipating.efficiency, rel=0.03)

    def test_equilibria_allocate_everything(self):
        eq = find_equilibrium(_market(4), bidder=PriceTakingBidder())
        np.testing.assert_allclose(
            eq.state.allocations.sum(axis=0), [10.0, 5.0], rtol=1e-9
        )
