"""Efficiency, envy-freeness, MUR and MBR metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scoring
from repro.core import (
    efficiency,
    envy_freeness,
    envy_matrix,
    market_budget_range,
    market_utility_range,
    price_of_anarchy,
)
from repro.exceptions import MarketConfigurationError
from repro.utility import GridUtility2D, LinearUtility, LogUtility
from repro.utility.base import UtilityFunction


class TableUtility(UtilityFunction):
    """``U(r) = row[int(r[0])]``: bundle ``j`` is the allocation ``[j]``."""

    def __init__(self, row):
        self.row = list(row)

    def _value_batch(self, points):
        return np.array([self.row[int(x)] for x in points[:, 0]], dtype=float)


def _bundles(n):
    return np.arange(n, dtype=float)[:, None]


class TestEfficiency:
    def test_sum_of_utilities(self):
        assert efficiency([0.5, 0.7, 0.8]) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert efficiency([]) == 0.0


class TestEnvyMatrix:
    def test_entries(self):
        utilities = [LinearUtility([1.0]), LinearUtility([2.0])]
        allocations = np.array([[1.0], [3.0]])
        matrix = envy_matrix(utilities, allocations)
        np.testing.assert_allclose(matrix, [[1.0, 3.0], [2.0, 6.0]])

    def test_more_rows_than_utilities_raises(self):
        # A third row used to leave row 2 of the matrix uninitialised, so
        # envy_freeness returned whatever that memory held.
        utilities = [LinearUtility([1.0, 1.0]), LinearUtility([2.0, 1.0])]
        allocations = np.ones((3, 2))
        with pytest.raises(MarketConfigurationError, match="one row per"):
            envy_matrix(utilities, allocations)
        with pytest.raises(MarketConfigurationError, match="one row per"):
            envy_freeness(utilities, allocations)

    def test_fewer_rows_than_utilities_raises(self):
        # Used to raise a bare IndexError.
        utilities = [LinearUtility([1.0, 1.0])] * 3
        with pytest.raises(MarketConfigurationError, match="one row per"):
            envy_freeness(utilities, np.ones((2, 2)))

    def test_one_dimensional_allocations_raise(self):
        with pytest.raises(MarketConfigurationError, match="one row per"):
            envy_freeness([LinearUtility([1.0])], np.ones(1))


class TestEnvyFreeness:
    def test_equal_split_identical_players_is_envy_free(self):
        utilities = [LinearUtility([1.0, 1.0])] * 3
        allocations = np.tile([2.0, 2.0], (3, 1))
        assert envy_freeness(utilities, allocations) == pytest.approx(1.0)

    def test_definition_3(self):
        # Player 0 values player 1's bundle at 4 vs its own 1 -> EF 0.25.
        utilities = [LinearUtility([1.0]), LinearUtility([1.0])]
        allocations = np.array([[1.0], [4.0]])
        assert envy_freeness(utilities, allocations) == pytest.approx(0.25)

    def test_capped_at_one(self):
        # Everyone strictly prefers their own bundle: EF is 1 (the i==j
        # pairs are included in the minimum).
        utilities = [LinearUtility([1.0, 0.0]), LinearUtility([0.0, 1.0])]
        allocations = np.array([[5.0, 0.0], [0.0, 5.0]])
        assert envy_freeness(utilities, allocations) == 1.0

    def test_worthless_bundles_ignored(self):
        utilities = [LinearUtility([1.0, 0.0]), LinearUtility([0.0, 1.0])]
        # Player 1 holds something player 0 values at zero.
        allocations = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert envy_freeness(utilities, allocations) == 1.0

    def test_zero_own_utility_with_positive_envy(self):
        utilities = [LinearUtility([1.0]), LinearUtility([1.0])]
        allocations = np.array([[0.0], [4.0]])
        assert envy_freeness(utilities, allocations) == 0.0

    def test_single_player(self):
        assert envy_freeness([LinearUtility([1.0])], np.array([[1.0]])) == 1.0

    def test_nan_utility_raises_naming_the_player(self):
        # A sequential min() skips NaN ratios, which used to report a NaN
        # utility as perfect fairness (EF 1.0).
        utilities = [TableUtility([float("nan")] * 6), LinearUtility([1.0])]
        with pytest.raises(MarketConfigurationError, match="player 0"):
            envy_freeness(utilities, np.array([[0.0], [5.0]]))

    def test_infinite_utility_raises(self):
        utilities = [TableUtility([1.0, 2.0]), TableUtility([float("inf"), 1.0])]
        with pytest.raises(MarketConfigurationError, match="player 1"):
            envy_freeness(utilities, _bundles(2))

    def test_signed_zero_tie_keeps_first_in_row_major_order(self):
        # Both ratios are zero; a sequential scan keeps the first (-0.0).
        utilities = [TableUtility([-0.0, 1.0, 0.0]), TableUtility([0.0, 0.0, 1.0]),
                     TableUtility([0.0, 0.0, 0.0])]
        ef = envy_freeness(utilities, _bundles(3))
        assert ef.hex() == reference_scoring.envy_freeness(utilities, _bundles(3)).hex()
        assert ef.hex() == (-0.0).hex()

    @given(
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=3)
    )
    @settings(max_examples=60, deadline=None)
    def test_always_in_unit_interval_for_positive_bundles(self, amounts):
        utilities = [LinearUtility([1.0])] * 3
        allocations = np.array(amounts)[:, None]
        ef = envy_freeness(utilities, allocations)
        assert 0.0 <= ef <= 1.0


_ENTRY = st.one_of(
    st.floats(-5.0, 5.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, float("inf"), float("-inf")]),
)


@st.composite
def envy_tables(draw):
    """An n x n table of utilities ``E[i, j]`` with zero, negative and inf entries."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
    return [TableUtility(row) for row in rows], _bundles(n)


@given(case=envy_tables())
@settings(max_examples=200, deadline=None)
def test_envy_freeness_equals_scalar_oracle(case):
    utilities, allocations = case
    matrix = envy_matrix(utilities, allocations)
    assert matrix.tobytes() == reference_scoring.envy_matrix(utilities, allocations).tobytes()
    if np.isfinite(matrix).all():
        # Tiny denominators overflow the ratio to inf on both paths.
        with np.errstate(over="ignore"):
            expected = reference_scoring.envy_freeness(utilities, allocations)
            assert envy_freeness(utilities, allocations).hex() == expected.hex()
    else:
        with pytest.raises(MarketConfigurationError):
            envy_freeness(utilities, allocations)


@st.composite
def utility_families(draw):
    """Linear (zero weights), log and grid (negative values) players."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    utilities = []
    for _ in range(n):
        kind = draw(st.sampled_from(["linear", "log", "grid"]))
        if kind == "linear":
            weights = rng.choice([0.0, 0.5, 2.0], size=2)
            utilities.append(LinearUtility(weights))
        elif kind == "log":
            utilities.append(LogUtility(rng.uniform(0.1, 3.0, 2), rng.uniform(0.5, 2.0, 2)))
        else:
            utilities.append(GridUtility2D(
                np.sort(rng.choice(np.linspace(0.0, 4.0, 9), 3, replace=False)),
                np.sort(rng.choice(np.linspace(0.0, 4.0, 9), 4, replace=False)),
                rng.uniform(-0.5, 2.0, size=(3, 4)),
            ))
    allocations = rng.uniform(0.0, 5.0, size=(n, 2))
    allocations[rng.random(allocations.shape) < 0.2] = 0.0
    return utilities, allocations


@given(case=utility_families())
@settings(max_examples=100, deadline=None)
def test_envy_scoring_equals_scalar_oracle_on_utility_families(case):
    utilities, allocations = case
    matrix = envy_matrix(utilities, allocations)
    assert matrix.tobytes() == reference_scoring.envy_matrix(utilities, allocations).tobytes()
    expected = reference_scoring.envy_freeness(utilities, allocations)
    assert envy_freeness(utilities, allocations).hex() == expected.hex()


class TestPriceOfAnarchy:
    def test_ratio(self):
        assert price_of_anarchy(8.0, 10.0) == pytest.approx(0.8)

    def test_degenerate_opt(self):
        assert price_of_anarchy(1.0, 0.0) == 1.0


class TestRanges:
    def test_mur(self):
        assert market_utility_range([1.0, 2.0, 4.0]) == pytest.approx(0.25)

    def test_mur_all_zero(self):
        assert market_utility_range([0.0, 0.0]) == 1.0

    def test_mbr(self):
        assert market_budget_range([50.0, 100.0]) == pytest.approx(0.5)

    def test_mbr_equal_budgets(self):
        assert market_budget_range([100.0] * 5) == 1.0

    def test_negative_lambda_clamped_to_theorem_domain(self):
        # Monitored (noisy) utilities can report a negative marginal
        # utility of money; the raw min/max ratio would go below zero
        # and poa_lower_bound / ef_lower_bound would raise.  The ranges
        # clamp to [0, 1] instead.
        from repro.core.theory import ef_lower_bound, poa_lower_bound

        mur = market_utility_range([-0.2, 1.0])
        mbr = market_budget_range([-5.0, 100.0])
        assert mur == 0.0
        assert mbr == 0.0
        assert poa_lower_bound(mur) >= 0.0  # must not raise
        assert ef_lower_bound(mbr) >= 0.0

    @given(
        st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=8)
    )
    @settings(max_examples=80, deadline=None)
    def test_ranges_in_unit_interval(self, values):
        assert 0.0 <= market_utility_range(values) <= 1.0
        assert 0.0 <= market_budget_range(values) <= 1.0
