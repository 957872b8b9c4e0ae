"""Players that share a utility object are solved, scored and tabulated
once per class, to the same bits as when every player holds its own copy.

A market is built twice from the same draw: once with players sharing
utility objects (one class per object), once with every shared utility
deep-copied (every player its own class).  Every search, every standard
mechanism and the envy matrix must agree bit for bit.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AllocationProblem,
    ExactBidder,
    PriceTakingBidder,
    WarmStart,
    envy_matrix,
    find_equilibrium,
    standard_mechanism_suite,
)
from repro.core.equilibrium import _final_lambdas
from repro.utility import (
    BatchedUtilitySet,
    GridUtility2D,
    LogUtility,
    PowerUtility,
    SaturatingUtility,
)

CAPACITIES = np.array([10.0, 4.0])

_weight = st.floats(min_value=0.05, max_value=4.0)
_budget = st.floats(min_value=10.0, max_value=200.0)


def _grid(draw):
    """A concave, non-decreasing grid over the market's box, read-only
    (as a memoized true grid) or writable."""
    xs = np.linspace(0.0, CAPACITIES[0], draw(st.integers(2, 6)))
    ys = np.linspace(0.0, CAPACITIES[1], draw(st.integers(2, 5)))
    a, b = draw(_weight), draw(_weight)
    grid = GridUtility2D(xs, ys, np.sqrt(1.0 + a * xs[:, None]) * np.log1p(1.0 + b * ys))
    if draw(st.booleans()):
        for axis in (grid.xs, grid.ys, grid.values):
            axis.flags.writeable = False
    return grid


@st.composite
def _utility(draw):
    kind = draw(st.sampled_from(["log", "power", "saturating", "grid"]))
    if kind == "log":
        return LogUtility([draw(_weight), draw(_weight)], [1.0, 1.0])
    if kind == "power":
        return PowerUtility([draw(_weight), draw(_weight)], [0.5, 0.7])
    if kind == "saturating":
        cap = draw(st.floats(min_value=0.5, max_value=3.0))
        return SaturatingUtility([draw(_weight), draw(_weight)], [cap, cap])
    return _grid(draw)


@st.composite
def shared_problems(draw):
    """``(shared, copied, budgets)``: one problem whose players share
    utility objects, the same problem with every utility deep-copied,
    and one budget per player, equal within each class."""
    pool = draw(st.lists(_utility(), min_size=1, max_size=3))
    num_players = draw(st.integers(min_value=len(pool) + 1, max_value=7))
    owners = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=num_players, max_size=num_players)
    )
    class_budgets = [draw(_budget) for _ in pool]
    # 16 and 40 quanta per resource fill tables up front, 300 on first read.
    quanta = CAPACITIES / draw(st.sampled_from([16, 40, 300]))
    caps = None
    if draw(st.booleans()):
        caps = np.tile(CAPACITIES * draw(st.floats(0.3, 1.0)), (num_players, 1))
    utilities = [pool[k] for k in owners]

    def problem(players):
        return AllocationProblem(
            utilities=players,
            capacities=CAPACITIES,
            resource_names=["r0", "r1"],
            player_names=[f"p{i}" for i in range(num_players)],
            quanta=quanta,
            per_player_caps=caps,
        )

    shared = problem(utilities)
    copied = problem([copy.deepcopy(u) for u in utilities])
    return shared, copied, [class_budgets[k] for k in owners]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def assert_equilibria_identical(a, b, problem):
    """``a`` and ``b`` agree bit for bit, and ``a``'s utilities and
    lambdas are the per-player ones at its bids."""
    for name in ("bids", "prices", "allocations"):
        assert _bits(getattr(a.state, name)) == _bits(getattr(b.state, name)), name
    assert _bits(a.utilities) == _bits(b.utilities)
    assert _bits(a.lambdas) == _bits(b.lambdas)
    assert _bits(a.utilities) == _bits(
        [u.value(r) for u, r in zip(problem.utilities, a.state.allocations)]
    )
    own = BatchedUtilitySet([copy.deepcopy(u) for u in problem.utilities])
    assert _bits(a.lambdas) == _bits(
        _final_lambdas(a.state.bids, problem.capacities, own, None)
    )
    assert (a.iterations, a.converged, a.warm_started) == (
        b.iterations, b.converged, b.warm_started
    )
    assert [_bits(p) for p in a.price_history] == [_bits(p) for p in b.price_history]
    for name in ("bids", "budgets", "last_moves", "anchor_prices"):
        x, y = getattr(a.warm_start, name), getattr(b.warm_start, name)
        assert (x is None) == (y is None) and (x is None or _bits(x) == _bits(y)), name


def assert_envy_identical(shared, copied, allocations):
    matrix = envy_matrix(shared.evaluator, allocations)
    assert _bits(matrix) == _bits(envy_matrix(copied.evaluator, allocations))
    assert _bits(matrix) == _bits(
        [[u.value(r) for r in allocations] for u in shared.utilities]
    )


def _searches(market, update="jacobi", bidder=None):
    cold = find_equilibrium(market, bidder=bidder, update=update)
    return cold, find_equilibrium(market, bidder=bidder, warm_start=cold.warm_start, update=update)


class TestSharedEqualsCopied:
    @given(shared_problems(), st.sampled_from(["hill-climb", "price-taking", "gauss-seidel"]))
    @settings(max_examples=40, deadline=None)
    def test_searches_cold_and_warm(self, drawn, mode):
        shared, copied, budgets = drawn
        bidder = PriceTakingBidder() if mode == "price-taking" else None
        update = "gauss-seidel" if mode == "gauss-seidel" else "jacobi"
        results = [
            _searches(p.build_market(budgets), update, bidder) for p in (shared, copied)
        ]
        for a, b in zip(*results):
            assert_equilibria_identical(a, b, shared)
            assert_envy_identical(shared, copied, a.state.allocations)
        cold, copied_cold = results[0][0], results[1][0]
        if update == "jacobi" and shared.evaluator.representatives.size < shared.num_players:
            # One row per class: fewer points than one row per player.
            assert cold.eval_counts["batch_points"] < copied_cold.eval_counts["batch_points"]
        else:
            assert cold.eval_counts["batch_points"] == copied_cold.eval_counts["batch_points"]

    @given(shared_problems())
    @settings(max_examples=10, deadline=None)
    def test_exact_bidder(self, drawn):
        shared, copied, budgets = drawn
        a, b = (
            find_equilibrium(p.build_market(budgets), bidder=ExactBidder())
            for p in (shared, copied)
        )
        assert_equilibria_identical(a, b, shared)

    @given(shared_problems())
    @settings(max_examples=30, deadline=None)
    def test_standard_mechanisms(self, drawn):
        shared, copied, _ = drawn
        for mechanism, twin in zip(standard_mechanism_suite(), standard_mechanism_suite()):
            a, b = mechanism.allocate(shared), twin.allocate(copied)
            assert _bits(a.allocations) == _bits(b.allocations), a.mechanism
            assert _bits(a.utilities) == _bits(b.utilities), a.mechanism
            assert (a.efficiency, a.envy_freeness, a.iterations, a.converged) == (
                b.efficiency, b.envy_freeness, b.iterations, b.converged
            )
            for name in ("budgets", "lambdas"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x is None) == (y is None) and (x is None or _bits(x) == _bits(y))
            assert (a.mur, a.mbr) == (b.mur, b.mbr)
            assert_envy_identical(shared, copied, a.allocations)


def _split_class_problems():
    """Five players, two classes of grids: players 0, 2, 4 share one."""
    xs, ys = np.linspace(0.0, 10.0, 5), np.linspace(0.0, 4.0, 4)
    first = GridUtility2D(xs, ys, np.sqrt(1.0 + xs[:, None]) * np.log1p(1.0 + ys))
    second = GridUtility2D(xs, ys, np.log1p(1.0 + 2.0 * xs[:, None]) * np.sqrt(1.0 + ys))
    utilities = [first, second, first, second, first]

    def problem(players):
        return AllocationProblem(
            utilities=players,
            capacities=CAPACITIES,
            resource_names=["r0", "r1"],
            player_names=[f"p{i}" for i in range(5)],
        )

    return problem(utilities), problem([copy.deepcopy(u) for u in utilities])


class TestSplitClasses:
    @pytest.mark.parametrize(
        "budgets",
        [[100.0, 100.0, 80.0, 100.0, 100.0], [0.0, 50.0, -0.0, 50.0, 0.0]],
        ids=["budget", "signed-zero"],
    )
    def test_budgets_split_a_class(self, budgets):
        shared, copied = _split_class_problems()
        assert not shared.evaluator.classwise_constant(np.array(budgets))
        a, b = (find_equilibrium(p.build_market(budgets)) for p in (shared, copied))
        assert_equilibria_identical(a, b, shared)
        # Every player was its own class: as many points as the copies.
        assert a.eval_counts["batch_points"] == b.eval_counts["batch_points"]

    def test_warm_bids_split_a_class(self):
        shared, copied = _split_class_problems()
        bids = np.tile([60.0, 40.0], (5, 1))
        bids[4] = [30.0, 70.0]
        warm = WarmStart(
            bids=bids,
            budgets=np.full(5, 100.0),
            last_moves=np.full(5, 5.0),
            player_names=tuple(shared.player_names),
            resource_names=tuple(shared.resource_names),
        )
        a, b = (
            find_equilibrium(p.build_market([100.0] * 5), warm_start=warm)
            for p in (shared, copied)
        )
        assert a.warm_started
        assert_equilibria_identical(a, b, shared)
        assert a.eval_counts["batch_points"] == b.eval_counts["batch_points"]

    def test_step_hints_split_a_class(self):
        shared, copied = _split_class_problems()
        warm = find_equilibrium(copied.build_market([100.0] * 5)).warm_start
        warm.last_moves = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        a, b = (
            find_equilibrium(p.build_market([90.0] * 5), warm_start=warm)
            for p in (shared, copied)
        )
        assert_equilibria_identical(a, b, shared)
        assert a.eval_counts["batch_points"] == b.eval_counts["batch_points"]
