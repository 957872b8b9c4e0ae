"""A player's view: Equation 2 allocation and the bid-marginal chain rule."""

import numpy as np
import pytest

from repro.core import bid_to_allocation, marginal_utility_of_bids
from repro.utility import LinearUtility, LogUtility


class TestBidToAllocation:
    def test_equation_2(self):
        # r_j = b_j / (b_j + y_j) * C_j
        alloc = bid_to_allocation(
            np.array([2.0, 1.0]), np.array([2.0, 3.0]), np.array([8.0, 8.0])
        )
        np.testing.assert_allclose(alloc, [4.0, 2.0])

    def test_sole_bidder_gets_everything(self):
        alloc = bid_to_allocation(np.array([0.5]), np.array([0.0]), np.array([4.0]))
        np.testing.assert_allclose(alloc, [4.0])

    def test_unbid_resource_goes_nowhere(self):
        alloc = bid_to_allocation(np.array([0.0]), np.array([0.0]), np.array([4.0]))
        np.testing.assert_allclose(alloc, [0.0])


class TestMarginalUtilityOfBids:
    def test_matches_numeric_derivative(self):
        utility = LogUtility([1.0, 0.5], [1.0, 1.0])
        bids = np.array([3.0, 2.0])
        others = np.array([5.0, 4.0])
        caps = np.array([10.0, 6.0])
        analytic = marginal_utility_of_bids(utility, bids, others, caps)

        def u_of_bids(b):
            return utility.value(bid_to_allocation(b, others, caps))

        eps = 1e-6
        for j in range(2):
            hi = bids.copy()
            hi[j] += eps
            lo = bids.copy()
            lo[j] -= eps
            numeric = (u_of_bids(hi) - u_of_bids(lo)) / (2 * eps)
            assert analytic[j] == pytest.approx(numeric, rel=1e-4)

    def test_zero_when_alone_on_resource(self):
        # Owning the whole resource already: more bid buys nothing.
        utility = LinearUtility([1.0])
        marg = marginal_utility_of_bids(
            utility, np.array([2.0]), np.array([0.0]), np.array([5.0])
        )
        assert marg[0] == 0.0

    def test_large_for_first_bid_on_unbid_resource(self):
        utility = LinearUtility([1.0])
        marg = marginal_utility_of_bids(
            utility, np.array([0.0]), np.array([0.0]), np.array([5.0])
        )
        assert marg[0] > 1e6
