"""Market clearing: Equation 1 pricing and proportional allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markets import make_market
from repro.core import AllocationProblem, Market, WarmStart, find_equilibrium
from repro.exceptions import MarketConfigurationError
from repro.utility import LinearUtility


def _market(num_players=3, capacities=(10.0, 5.0)):
    return make_market(
        [LinearUtility([1.0] * len(capacities)) for _ in range(num_players)],
        capacities,
    )


def _build(capacities=(4.0, 2.0), budgets=(10.0, 10.0), names=("cache", "power"),
           utilities=None):
    """Build a two-player problem and its market from raw inputs."""
    if utilities is None:
        utilities = [LinearUtility([1.0] * len(capacities))] * 2
    problem = AllocationProblem(
        utilities=list(utilities),
        capacities=list(capacities),
        resource_names=list(names),
        player_names=[f"p{i}" for i in range(len(utilities))],
    )
    return Market(problem, list(budgets))


class TestMarketBasics:
    def test_shape_properties(self):
        m = _market()
        assert m.num_players == 3
        assert m.num_resources == 2
        np.testing.assert_allclose(m.capacities, [10.0, 5.0])
        np.testing.assert_allclose(m.budgets, [100.0] * 3)

    def test_rejects_empty_players(self):
        with pytest.raises(MarketConfigurationError):
            _build(budgets=(), utilities=[])

    def test_accepts_zero_and_numpy_budgets(self):
        m = _build(budgets=(0, np.float64(2.5)))
        np.testing.assert_array_equal(m.budgets, [0.0, 2.5])
        assert m.budgets.dtype == float

    def test_budgets_are_read_only(self):
        m = _market()
        with pytest.raises(ValueError):
            m.budgets[0] = 1.0

    def test_non_finite_inputs_fail_before_any_solve(self):
        """A non-finite capacity fails at construction; a non-finite budget
        fails when assigned and leaves the market's budgets as they were."""
        m = _build()
        with pytest.raises(MarketConfigurationError, match=_BUDGET_RANGE):
            m.budgets = (10.0, np.nan)
        np.testing.assert_array_equal(m.budgets, [10.0, 10.0])
        with pytest.raises(MarketConfigurationError, match=_CAPACITY_RANGE):
            _build(capacities=(np.inf, 2.0))


_BUDGET_RANGE = "finite and >= 0"
_CAPACITY_RANGE = "finite and non-negative"

#: (case, inputs that differ from _build's defaults, expected message)
_REJECTED = [
    ("negative-budget", {"budgets": (10.0, -5.0)}, _BUDGET_RANGE),
    ("nan-budget", {"budgets": (10.0, np.nan)}, _BUDGET_RANGE),
    ("inf-budget", {"budgets": (10.0, np.inf)}, _BUDGET_RANGE),
    ("-inf-budget", {"budgets": (10.0, -np.inf)}, _BUDGET_RANGE),
    ("wrong-budget-count", {"budgets": (10.0, 10.0, 10.0)}, "budgets shape"),
    ("zero-capacity", {"capacities": (4.0, 0.0)}, "positive capacity"),
    ("negative-capacity", {"capacities": (4.0, -1.0)}, _CAPACITY_RANGE),
    ("nan-capacity", {"capacities": (np.nan, 2.0)}, _CAPACITY_RANGE),
    ("inf-capacity", {"capacities": (np.inf, 2.0)}, _CAPACITY_RANGE),
    ("-inf-capacity", {"capacities": (-np.inf, 2.0)}, _CAPACITY_RANGE),
    ("duplicate-resource-names", {"names": ("cache", "cache")}, "duplicate"),
    (
        "no-resources",
        {"capacities": (), "names": (), "utilities": [LinearUtility([])] * 2},
        "at least one resource",
    ),
    (
        "utility-resource-count",
        {"utilities": [LinearUtility([1.0])] * 2},
        "covers 1 resources, market has 2",
    ),
]


@pytest.mark.parametrize(
    "inputs, message",
    [case[1:] for case in _REJECTED],
    ids=[case[0] for case in _REJECTED],
)
def test_rejects_before_any_solve(inputs, message):
    """Every input no market can clear fails at construction."""
    _build()  # the unaltered inputs build a market
    with pytest.raises(MarketConfigurationError, match=message):
        _build(**inputs)


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
            bids=np.full((3, 2), bad), budgets=m.budgets,
            player_names=tuple(m.problem.player_names),
            resource_names=tuple(m.problem.resource_names),
        )
        assert seed.compatible_with(m)
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

