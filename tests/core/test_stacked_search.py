"""``find_equilibria``: K markets over one problem in one lockstep search.

A best response depends only on its own market, and the evaluator's
row ``k`` only on row ``k``, so every market of a stacked search must
come out bitwise as its solo ``find_equilibrium`` — whatever mix of
budgets, cold and warm seeds, stale anchors and split player classes
shares the stack.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markets import make_market
from repro.core import find_equilibria, find_equilibrium
from repro.exceptions import MarketConfigurationError
from repro.utility import EVAL_COUNTERS, LogUtility, SaturatingUtility

_weight = st.floats(min_value=0.05, max_value=4.0)
_budget = st.floats(min_value=5.0, max_value=150.0)


@st.composite
def _problem(draw):
    """3-8 players over 2-4 utility objects: some players share one."""
    pool = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            pool.append(LogUtility([draw(_weight), draw(_weight)], [1.0, 1.0]))
        else:
            cap = draw(st.floats(min_value=0.2, max_value=3.0))
            pool.append(SaturatingUtility([draw(_weight), draw(_weight)], [cap, cap]))
    num_players = draw(st.integers(3, 8))
    owners = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=num_players, max_size=num_players)
    )
    return make_market([pool[k] for k in owners], [10.0, 6.0]).problem


@st.composite
def stacks(draw):
    """A problem and 2-5 (budgets, warm start) pairs over it."""
    problem = draw(_problem())
    n = problem.num_players
    seed = find_equilibrium(problem.build_market([100.0] * n)).warm_start
    entries = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["equal", "classwise", "split"]))
        if kind == "equal":
            budgets = [100.0] * n
        elif kind == "classwise":
            per_class = [draw(_budget) for _ in range(problem.evaluator.representatives.size)]
            budgets = [per_class[c] for c in problem.evaluator.classes]
        else:
            budgets = [draw(_budget) for _ in range(n)]
        warm = draw(st.sampled_from(["cold", "warm", "stale", "no-moves", "split-moves"]))
        if warm == "cold":
            warm_start = None
        elif warm == "warm":
            warm_start = seed
        elif warm == "stale":
            # Drift past the tolerance since the anchor: the first
            # stable round is refused and the market re-searches.
            warm_start = dataclasses.replace(seed, anchor_prices=seed.anchor_prices * 1.5)
        elif warm == "no-moves":
            warm_start = dataclasses.replace(seed, last_moves=None)
        else:
            moves = np.array([draw(st.floats(0.01, 20.0)) for _ in range(n)])
            warm_start = dataclasses.replace(seed, last_moves=moves)
        entries.append((budgets, warm_start))
    return problem, entries


def _arrays(eq):
    warm = eq.warm_start
    return [
        eq.state.bids, eq.state.prices, eq.state.allocations, eq.utilities, eq.lambdas,
        *eq.price_history, warm.bids, warm.budgets, warm.last_moves, warm.anchor_prices,
    ]


def _assert_bitwise(ours, theirs):
    assert ours.iterations == theirs.iterations
    assert ours.converged == theirs.converged
    assert ours.warm_started == theirs.warm_started
    assert len(ours.price_history) == len(theirs.price_history)
    for a, b in zip(_arrays(ours), _arrays(theirs)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@given(stacks())
@settings(max_examples=60, deadline=None)
def test_stacked_markets_equal_their_solo_searches(stack):
    problem, entries = stack
    markets = [problem.build_market(budgets) for budgets, _ in entries]
    warm_starts = [warm_start for _, warm_start in entries]
    stacked = find_equilibria(markets, warm_starts)
    assert len(stacked) == len(markets)
    for market, warm_start, ours in zip(markets, warm_starts, stacked):
        _assert_bitwise(ours, find_equilibrium(market, warm_start=warm_start))


def _case():
    problem = make_market(
        [LogUtility([2.0, 0.5], [1.0, 1.0]), LogUtility([0.5, 2.0], [1.0, 1.0])] * 2,
        [10.0, 6.0],
    ).problem
    return problem, [problem.build_market(b) for b in ([100.0] * 4, [100.0, 60.0, 100.0, 30.0])]


class TestEvalCounts:
    def test_every_result_carries_the_whole_search_tallies(self):
        problem, markets = _case()
        before = EVAL_COUNTERS.snapshot()
        results = find_equilibria(markets, [None, None])
        whole = EVAL_COUNTERS.since(before)
        assert whole["total_calls"] > 0
        assert [r.eval_counts for r in results] == [whole, whole]
        # One dispatch serves both markets: the stack costs fewer
        # dispatches than the two searches alone.
        alone = [find_equilibrium(m).eval_counts["total_calls"] for m in markets]
        assert whole["total_calls"] < sum(alone)

    def test_one_market_counts_as_its_solo_search(self):
        problem, markets = _case()
        (result,) = find_equilibria(markets[:1], [None])
        assert result.eval_counts == find_equilibrium(markets[0]).eval_counts


class TestValidation:
    def test_empty_stack(self):
        assert find_equilibria([], []) == []

    def test_one_warm_start_per_market(self):
        _problem, markets = _case()
        with pytest.raises(ValueError, match="warm starts"):
            find_equilibria(markets, [None])

    def test_markets_share_one_problem(self):
        _problem, markets = _case()
        other, _ = _case()
        with pytest.raises(MarketConfigurationError, match="one problem"):
            find_equilibria([markets[0], other.build_market([100.0] * 4)], [None, None])
