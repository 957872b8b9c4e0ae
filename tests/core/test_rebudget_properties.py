"""Property-based invariants of the ReBudget loop on random markets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from markets import make_market
from repro.core import ReBudgetConfig, run_rebudget
from repro.core.theory import ef_lower_bound, min_mbr_for_envy_freeness
from repro.utility import LogUtility, SaturatingUtility

_weight = st.floats(min_value=0.05, max_value=4.0)


@st.composite
def rebudget_markets(draw):
    """Random 3-5 player markets mixing hungry and saturating utilities."""
    num_players = draw(st.integers(min_value=3, max_value=5))
    utilities = []
    for _ in range(num_players):
        if draw(st.booleans()):
            utility = LogUtility([draw(_weight), draw(_weight)], [1.0, 1.0])
        else:
            cap = draw(st.floats(min_value=0.2, max_value=3.0))
            utility = SaturatingUtility([draw(_weight), draw(_weight)], [cap, cap])
        utilities.append(utility)
    return make_market(utilities, [10.0, 6.0])


@st.composite
def shared_rebudget_markets(draw):
    """Random 4-8 player markets over 2-3 utility objects, so several
    players share one (a player class) and the searches solve one row
    per class."""
    pool = draw(rebudget_markets()).problem.utilities[: draw(st.integers(2, 3))]
    num_players = draw(st.integers(min_value=len(pool) + 2, max_value=8))
    owners = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=num_players, max_size=num_players)
    )
    market = make_market([pool[k] for k in owners], [10.0, 6.0])
    assert market.evaluator.representatives.size < num_players
    return market


class TestReBudgetInvariants:
    @given(rebudget_markets(), st.sampled_from([10.0, 20.0, 40.0]))
    @settings(max_examples=25, deadline=None)
    def test_budget_envelope(self, market, step):
        result = run_rebudget(market, ReBudgetConfig(step=step))
        # Budgets only ever decrease, never exceed B, and never fall
        # below B minus the geometric cut series.
        max_total_cut = step * 2.0
        for r in result.rounds:
            assert np.all(r.budgets <= 100.0 + 1e-9)
            assert np.all(r.budgets >= 100.0 - max_total_cut - 1e-9)

    @given(rebudget_markets())
    @settings(max_examples=20, deadline=None)
    def test_budgets_monotone_across_rounds(self, market):
        result = run_rebudget(market, ReBudgetConfig(step=30.0))
        for earlier, later in zip(result.rounds, result.rounds[1:]):
            assert np.all(later.budgets <= earlier.budgets + 1e-9)

    @given(rebudget_markets(), st.sampled_from([0.3, 0.5, 0.7]))
    @settings(max_examples=20, deadline=None)
    def test_ef_target_always_guaranteed(self, market, ef_target):
        result = run_rebudget(
            market, ReBudgetConfig(min_envy_freeness=ef_target)
        )
        assert result.mbr >= min_mbr_for_envy_freeness(ef_target) - 1e-9
        assert ef_lower_bound(result.mbr) >= ef_target - 1e-9

    @given(rebudget_markets())
    @settings(max_examples=20, deadline=None)
    def test_realized_ef_respects_theorem2(self, market):
        from repro.core import envy_freeness

        result = run_rebudget(market, ReBudgetConfig(step=40.0))
        realized = envy_freeness(
            market.problem.utilities,
            result.final_equilibrium.state.allocations,
        )
        assert realized >= ef_lower_bound(result.mbr) - 1e-6

    @given(shared_rebudget_markets(), st.sampled_from([0.3, 0.5, 0.7]))
    @settings(max_examples=25, deadline=None)
    def test_budgets_never_rise_nor_cross_the_mbr_floor(self, market, ef_target):
        result = run_rebudget(market, ReBudgetConfig(min_envy_freeness=ef_target))
        floor = min_mbr_for_envy_freeness(ef_target) * 100.0
        budgets = [r.budgets for r in result.rounds] + [market.budgets]
        for earlier, later in zip(budgets, budgets[1:]):
            assert np.all(later >= floor)
            assert np.all(later <= earlier)
        assert np.all(budgets[0] == 100.0)
