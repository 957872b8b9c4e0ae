"""Market clearing: Equation 1 pricing and proportional allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Market,
    Player,
    Resource,
    ResourceSet,
    WarmStart,
    find_equilibrium,
)
from repro.exceptions import MarketConfigurationError
from repro.utility import LinearUtility


def _market(num_players=3, capacities=(10.0, 5.0)):
    rs = ResourceSet.of(
        *[Resource(f"r{j}", c) for j, c in enumerate(capacities)]
    )
    players = [
        Player(f"p{i}", LinearUtility([1.0] * len(capacities)), 100.0)
        for i in range(num_players)
    ]
    return Market(rs, players)


class TestMarketBasics:
    def test_shape_properties(self):
        m = _market()
        assert m.num_players == 3
        assert m.num_resources == 2
        np.testing.assert_allclose(m.capacities, [10.0, 5.0])
        np.testing.assert_allclose(m.budgets, [100.0] * 3)

    def test_rejects_empty_players(self):
        rs = ResourceSet.of(Resource("x", 1.0))
        with pytest.raises(MarketConfigurationError):
            Market(rs, [])

    def test_rejects_utility_dimension_mismatch(self):
        rs = ResourceSet.of(Resource("x", 1.0), Resource("y", 1.0))
        with pytest.raises(MarketConfigurationError):
            Market(rs, [Player("p", LinearUtility([1.0]), 1.0)])


class TestPricing:
    def test_equation_1(self):
        m = _market()
        bids = np.array([[4.0, 1.0], [4.0, 1.0], [2.0, 3.0]])
        prices = m.prices(bids)
        # p_j = sum_i b_ij / C_j
        np.testing.assert_allclose(prices, [1.0, 1.0])

    def test_rejects_bad_shapes_and_negative_bids(self):
        m = _market()
        with pytest.raises(MarketConfigurationError):
            m.prices(np.zeros((2, 2)))
        with pytest.raises(MarketConfigurationError):
            m.prices(np.full((3, 2), -1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bids(self, bad):
        m = _market()
        bids = np.full((3, 2), 10.0)
        bids[1, 0] = bad
        with pytest.raises(MarketConfigurationError, match="finite"):
            m.prices(bids)
        with pytest.raises(MarketConfigurationError, match="finite"):
            m.allocate(bids)
        # A non-finite warm seed must not run an equilibrium search on
        # NaN prices: every row falls back to the equal split.
        seed = WarmStart(
            bids=np.full((3, 2), bad), budgets=m.budgets, prices=np.ones(2)
        )
        eq = find_equilibrium(m, warm_start=seed)
        np.testing.assert_array_equal(
            eq.price_history[0], m.prices(m.equal_split_bids())
        )
        assert np.all(np.isfinite(eq.state.prices))


class TestAllocation:
    def test_proportional_to_bids(self):
        m = _market(2)
        bids = np.array([[3.0, 1.0], [1.0, 3.0]])
        state = m.allocate(bids)
        np.testing.assert_allclose(state.allocations[0], [7.5, 1.25])
        np.testing.assert_allclose(state.allocations[1], [2.5, 3.75])

    def test_unbid_resource_unallocated(self):
        m = _market(2)
        bids = np.array([[3.0, 0.0], [1.0, 0.0]])
        state = m.allocate(bids)
        assert state.allocations[:, 1].sum() == 0.0

    @given(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=2),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_no_overallocation(self, bid_rows):
        m = _market()
        bids = np.array(bid_rows)
        state = m.allocate(bids)
        totals = state.allocations.sum(axis=0)
        for j, cap in enumerate(m.capacities):
            bid_total = bids[:, j].sum()
            if bid_total > 0:
                # Everything is handed out ("no leftovers").
                assert totals[j] == pytest.approx(cap)
            else:
                assert totals[j] == 0.0

    def test_allocation_for_matches_full_clear(self):
        m = _market()
        bids = np.array([[4.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        state = m.allocate(bids)
        for i in range(3):
            np.testing.assert_allclose(
                m.allocation_for(bids, i), state.allocations[i]
            )

    def test_others_bids(self):
        m = _market()
        bids = np.array([[4.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        np.testing.assert_allclose(m.others_bids(bids, 0), [3.0, 3.0])


class TestHelpers:
    def test_equal_split_bids(self):
        m = _market()
        bids = m.equal_split_bids()
        np.testing.assert_allclose(bids, np.full((3, 2), 50.0))

    def test_strongly_competitive(self):
        m = _market()
        assert m.is_strongly_competitive(np.ones((3, 2)))
        weak = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        assert not m.is_strongly_competitive(weak)

    def test_utilities_vector(self):
        m = _market(2)
        allocs = np.array([[1.0, 1.0], [2.0, 0.0]])
        np.testing.assert_allclose(m.utilities(allocs), [2.0, 2.0])
