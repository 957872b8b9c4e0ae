"""Bidding strategies: the paper's hill climb and the exact reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markets import best_response
from reference_bidding import bid_to_allocation, marginal_utility_of_bids, player_lambda
from repro.core import ExactBidder, HillClimbBidder
from repro.core.bidding import _project_to_simplex
from repro.core.equilibrium import _final_lambdas
from repro.utility import LinearUtility, LogUtility, SaturatingUtility
from repro.utility.batch import BatchedUtilitySet


def _u_of_bids(utility, others, caps):
    def f(bids):
        return utility.value(bid_to_allocation(bids, others, caps))

    return f


class TestHillClimbBidder:
    def test_spends_full_budget(self):
        bidder = HillClimbBidder()
        bids = best_response(
            bidder, LogUtility([1.0, 1.0]), 100.0, np.array([50.0, 50.0]), np.array([10.0, 10.0])
        )
        assert bids.sum() == pytest.approx(100.0)
        assert np.all(bids >= 0.0)

    def test_improves_on_equal_split(self):
        # Utility strongly favouring resource 0: the climb must shift
        # money toward it.
        utility = LogUtility([5.0, 0.1])
        others = np.array([50.0, 50.0])
        caps = np.array([10.0, 10.0])
        bidder = HillClimbBidder()
        bids = best_response(bidder, utility, 100.0, others, caps)
        f = _u_of_bids(utility, others, caps)
        assert f(bids) >= f(np.array([50.0, 50.0]))
        assert bids[0] > bids[1]

    def test_single_resource_bids_everything(self):
        bids = best_response(
            HillClimbBidder(), LinearUtility([1.0]), 42.0, np.array([10.0]), np.array([5.0])
        )
        np.testing.assert_allclose(bids, [42.0])

    def test_zero_budget(self):
        bids = best_response(
            HillClimbBidder(), LinearUtility([1.0, 1.0]), 0.0, np.array([1.0, 1.0]), np.array([5.0, 5.0])
        )
        np.testing.assert_allclose(bids, [0.0, 0.0])

    def test_near_equalizes_marginals_when_interior(self):
        utility = LogUtility([1.0, 1.0])
        others = np.array([80.0, 20.0])
        caps = np.array([10.0, 10.0])
        bids = best_response(HillClimbBidder(), utility, 100.0, others, caps)
        marg = marginal_utility_of_bids(utility, bids, others, caps)
        # Stop criterion: within 5% (plus the finite final step).
        assert marg.max() - marg.min() <= 0.12 * marg.max()

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=1.0, max_value=200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_budget_feasibility_property(self, w0, w1, others_scale):
        utility = LogUtility([w0, w1])
        others = np.array([others_scale, others_scale / 2.0])
        caps = np.array([10.0, 10.0])
        bids = best_response(HillClimbBidder(), utility, 100.0, others, caps)
        assert bids.sum() <= 100.0 + 1e-9
        assert np.all(bids >= -1e-12)


class TestExactBidder:
    def test_matches_or_beats_hill_climb(self):
        utility = LogUtility([3.0, 1.0])
        others = np.array([40.0, 60.0])
        caps = np.array([10.0, 10.0])
        f = _u_of_bids(utility, others, caps)
        hill = best_response(HillClimbBidder(), utility, 100.0, others, caps)
        exact = best_response(ExactBidder(), utility, 100.0, others, caps)
        assert f(exact) >= f(hill) - 1e-6

    def test_analytic_two_symmetric_resources(self):
        # Symmetric utility + symmetric others => optimal bids are equal.
        utility = LogUtility([1.0, 1.0])
        others = np.array([30.0, 30.0])
        caps = np.array([10.0, 10.0])
        bids = best_response(ExactBidder(), utility, 100.0, others, caps)
        assert bids[0] == pytest.approx(bids[1], rel=1e-3)

    def test_warm_start_rescaled(self):
        utility = LogUtility([1.0, 1.0])
        bids = best_response(
            ExactBidder(), utility,
            50.0,
            np.array([10.0, 10.0]),
            np.array([5.0, 5.0]),
            current_bids=np.array([80.0, 20.0]),
        )
        assert bids.sum() == pytest.approx(50.0)

    @pytest.mark.parametrize(
        "seed, start",
        [
            ([np.inf, 1.0], None),  # non-finite: the equal split
            ([-50.0, 60.0], [0.0, 60.0]),  # clamped at 0, then rescaled
        ],
    )
    def test_warm_seed_follows_the_shared_seed_rule(self, seed, start):
        # A seed is reused only when finite; negative entries are clamped
        # at 0 before rescaling, so the bids stay non-negative.
        utility = LogUtility([1.0, 2.0])
        others = np.array([40.0, 60.0])
        caps = np.array([10.0, 10.0])
        bidder = ExactBidder()
        bids = best_response(
            bidder, utility, 100.0, others, caps, current_bids=np.array(seed)
        )
        expected = best_response(
            bidder, utility, 100.0, others, caps,
            current_bids=None if start is None else np.array(start),
        )
        assert np.all(bids >= 0.0)
        assert bids.sum() == pytest.approx(100.0)
        assert np.array_equal(bids, expected)

    def test_saturating_utility_stops_buying(self):
        # Once saturated, extra bids add nothing; budget still feasible.
        utility = SaturatingUtility([1.0, 1.0], [1.0, 1.0])
        bids = best_response(
            ExactBidder(), utility, 100.0, np.array([1.0, 1.0]), np.array([10.0, 10.0])
        )
        assert bids.sum() <= 100.0 + 1e-9


class TestPlayerLambda:
    """``lambda_i`` as the search reports it, against the scalar oracle.

    Row 0 of a two-player bid matrix sees row 1's bids as ``others``.
    """

    @staticmethod
    def _lambda(utility, bids, others, caps):
        matrix = np.array([bids, others], dtype=float)
        evaluator = BatchedUtilitySet([utility, utility])
        return _final_lambdas(matrix, np.asarray(caps, dtype=float), evaluator, None)[0]

    def test_lambda_is_max_active_marginal(self):
        utility = LogUtility([1.0, 1.0])
        bids = np.array([50.0, 0.0])
        others = np.array([50.0, 50.0])
        caps = np.array([10.0, 10.0])
        lam = self._lambda(utility, bids, others, caps)
        marg = marginal_utility_of_bids(utility, bids, others, caps)
        assert lam == pytest.approx(marg[0])
        assert lam == player_lambda(utility, bids, others, caps)

    def test_lambda_zero_bids(self):
        utility = LogUtility([1.0, 1.0])
        bids, others, caps = np.zeros(2), np.array([1.0, 1.0]), np.array([5.0, 5.0])
        lam = self._lambda(utility, bids, others, caps)
        assert lam >= 0.0
        assert lam == player_lambda(utility, bids, others, caps)


class TestSimplexProjection:
    def test_already_feasible(self):
        p = _project_to_simplex(np.array([30.0, 70.0]), 100.0)
        np.testing.assert_allclose(p, [30.0, 70.0])

    def test_clips_negative(self):
        p = _project_to_simplex(np.array([-50.0, 150.0]), 100.0)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(100.0)

    @given(
        st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=2, max_size=6),
        st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_projection_properties(self, vector, total):
        p = _project_to_simplex(np.array(vector), total)
        assert np.all(p >= -1e-9)
        assert p.sum() == pytest.approx(total, rel=1e-6)

    def test_zero_total(self):
        p = _project_to_simplex(np.array([1.0, 2.0]), 0.0)
        np.testing.assert_allclose(p, [0.0, 0.0])
