"""A player's view: Equation 2 allocation and the bid-marginal chain rule.

Both run on one-row blocks of the batch body that the hill climb and
the exact bidder share.
"""

import numpy as np
import pytest

from repro.core import marginal_utility_of_bids_batch
from repro.core.player import _equation_2_and_7
from repro.utility import LinearUtility, LogUtility
from repro.utility.batch import BatchedUtilitySet


def _allocation(bids, others, caps):
    """Equation 2's allocation of one bid row."""
    return _equation_2_and_7(np.array([bids]), np.array([others]), np.array(caps))[0][0]


def _marginals(utility, bids, others, caps):
    """Equation 7's marginals of one bid row."""
    return marginal_utility_of_bids_batch(
        np.array([bids]), np.array([others]), np.array(caps), BatchedUtilitySet([utility])
    )[0]


class TestBidToAllocation:
    def test_equation_2(self):
        # r_j = b_j / (b_j + y_j) * C_j
        alloc = _allocation([2.0, 1.0], [2.0, 3.0], [8.0, 8.0])
        np.testing.assert_allclose(alloc, [4.0, 2.0])

    def test_sole_bidder_gets_everything(self):
        np.testing.assert_allclose(_allocation([0.5], [0.0], [4.0]), [4.0])

    def test_unbid_resource_goes_nowhere(self):
        np.testing.assert_allclose(_allocation([0.0], [0.0], [4.0]), [0.0])


class TestMarginalUtilityOfBids:
    def test_matches_numeric_derivative(self):
        utility = LogUtility([1.0, 0.5], [1.0, 1.0])
        bids = np.array([3.0, 2.0])
        others = np.array([5.0, 4.0])
        caps = np.array([10.0, 6.0])
        analytic = _marginals(utility, bids, others, caps)

        def u_of_bids(b):
            return utility.value(_allocation(b, others, caps))

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
        marg = _marginals(LinearUtility([1.0]), [2.0], [0.0], [5.0])
        assert marg[0] == 0.0

    def test_large_for_first_bid_on_unbid_resource(self):
        marg = _marginals(LinearUtility([1.0]), [0.0], [0.0], [5.0])
        assert marg[0] > 1e6
