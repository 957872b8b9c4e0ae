"""The single lockstep hill climb vs. the scalar reference climbs.

:class:`HillClimbBidder` advances every player's Section 4.1.2 climb
with batched marginal evaluations; because each per-player decision
mirrors the scalar arithmetic operation for operation, its bid matrices
must be *bitwise identical* to N independent scalar climbs
(``reference_bidding``) — cold, warm, stale-seeded, zero-budget and
single-resource alike, for both the price-anticipating and the
price-taking marginal.  The same holds end-to-end through
``find_equilibrium``; its call counts are pinned by the
``climb_reference`` fixture.  Whenever a block call returns Equation 7
marginals with its bids, they are bitwise the batched marginals at
those bids.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markets import best_response, make_market
from reference_bidding import (
    ScalarHillClimbBidder,
    ScalarPriceTakingBidder,
    bid_to_allocation,
    marginal_utility_of_bids,
    player_lambda,
)
from repro.cmp import ChipModel, cmp_8core
from repro.core import (
    EqualBudget,
    ExactBidder,
    HillClimbBidder,
    PriceTakingBidder,
    ReBudgetConfig,
    find_equilibrium,
    marginal_utility_of_bids_batch,
    run_rebudget,
)
from repro.core import equilibrium as equilibrium_module
from repro.qa import sanitize
from repro.utility import (
    GridUtility2D,
    LinearUtility,
    LogUtility,
    PowerUtility,
    SaturatingUtility,
)
from repro.utility.batch import BatchedUtilitySet
from repro.workloads import generate_bundles


def scalar_reference(
    utilities, budgets, others, capacities, current_bids=None, step_hints=None,
    bidder=None,
):
    """N independent scalar climbs, row for row; a NaN hint is none,
    as in the block climb."""
    bidder = bidder or ScalarHillClimbBidder()
    out = np.zeros((len(utilities), capacities.size))
    for i, utility in enumerate(utilities):
        out[i] = bidder.optimize(
            utility,
            float(budgets[i]),
            others[i],
            capacities,
            current_bids=None if current_bids is None else current_bids[i],
            step_hint=(
                None if step_hints is None or np.isnan(step_hints[i])
                else float(step_hints[i])
            ),
        )
    return out


def optimize_all(bidder, utilities, budgets, others, capacities, **warm):
    """``bidder.optimize_all`` over one block of every player of ``utilities``:
    the ``(bids, marginals)`` pair."""
    return bidder.optimize_all(
        BatchedUtilitySet(utilities), np.arange(len(utilities)),
        budgets, others, capacities, **warm,
    )


@pytest.fixture
def mixed_setup(bbpc_problem):
    """The BBPC chip's grid utilities plus two closed-form stragglers."""
    utilities = list(bbpc_problem.utilities) + [
        LogUtility([1.0, 0.5], [2.0e6, 1.0]),
        LinearUtility([1e-7, 0.02]),
    ]
    capacities = bbpc_problem.capacities
    rng = np.random.default_rng(42)
    budgets = rng.uniform(20.0, 150.0, size=len(utilities))
    others = rng.uniform(0.0, 80.0, size=(len(utilities), capacities.size))
    return utilities, budgets, others, capacities


class TestPlayerBatchSeams:
    """The (K, M) player seams must reproduce their scalar forms row for
    row — including zero-capacity resources, all-zero bid rows, and the
    first-bid (nobody-else-bids) marginal."""

    #: Rows covering: ordinary bids, all-zero bids, a first bid on an
    #: otherwise un-bid resource, and a bid against a dead resource.
    BIDS = np.array(
        [[10.0, 5.0, 1.0], [0.0, 0.0, 0.0], [3.0, 0.0, 7.0], [1.0, 1.0, 1.0]]
    )
    OTHERS = np.array(
        [[20.0, 10.0, 0.0], [5.0, 5.0, 5.0], [0.0, 0.0, 2.0], [9.0, 0.0, 4.0]]
    )
    #: Middle resource has zero capacity (e.g. a powered-off domain).
    CAPACITIES = np.array([10.0, 0.0, 5.0])

    def test_allocation_batch_matches_scalar(self):
        batch = bid_to_allocation(self.BIDS, self.OTHERS, self.CAPACITIES)
        for k in range(self.BIDS.shape[0]):
            expected = bid_to_allocation(
                self.BIDS[k], self.OTHERS[k], self.CAPACITIES
            )
            assert np.array_equal(batch[k], expected)

    def test_allocation_batch_broadcasts_shared_others(self):
        shared = self.OTHERS[0]
        batch = bid_to_allocation(self.BIDS, shared, self.CAPACITIES)
        for k in range(self.BIDS.shape[0]):
            expected = bid_to_allocation(self.BIDS[k], shared, self.CAPACITIES)
            assert np.array_equal(batch[k], expected)

    def test_marginal_batch_matches_scalar(self):
        utility = LogUtility([1.0, 0.5, 2.0], [2.0, 1.0, 3.0])
        rows = self.BIDS.shape[0]
        batch = marginal_utility_of_bids_batch(
            self.BIDS, self.OTHERS, self.CAPACITIES,
            BatchedUtilitySet([utility]), np.zeros(rows, dtype=np.intp),
        )
        for k in range(self.BIDS.shape[0]):
            expected = marginal_utility_of_bids(
                utility, self.BIDS[k], self.OTHERS[k], self.CAPACITIES
            )
            assert np.array_equal(batch[k], expected)


class TestOptimizeAll:
    def test_cold_matches_scalar_bitwise(self, mixed_setup):
        utilities, budgets, others, capacities = mixed_setup
        bids, _ = optimize_all(HillClimbBidder(), utilities, budgets, others, capacities)
        expected = scalar_reference(utilities, budgets, others, capacities)
        assert np.array_equal(bids, expected)

    def test_warm_with_hints_matches_scalar_bitwise(self, mixed_setup):
        utilities, budgets, others, capacities = mixed_setup
        cold = scalar_reference(utilities, budgets, others, capacities)
        # Perturb the seed slightly and hand every player a small hint;
        # some rows will probe as stale (full-mobility climb) and some
        # fresh — both branches must mirror the scalar path.
        rng = np.random.default_rng(7)
        seed = cold * rng.uniform(0.9, 1.1, size=cold.shape)
        seed = seed * (budgets / seed.sum(axis=1))[:, None]
        hints = rng.uniform(0.5, 5.0, size=budgets.size)
        bids, _ = optimize_all(
            HillClimbBidder(), utilities, budgets, others, capacities,
            current_bids=seed, step_hints=hints,
        )
        expected = scalar_reference(
            utilities, budgets, others, capacities,
            current_bids=seed, step_hints=hints,
        )
        assert np.array_equal(bids, expected)

    def test_zero_budget_players(self, mixed_setup):
        utilities, budgets, others, capacities = mixed_setup
        budgets = budgets.copy()
        budgets[1] = 0.0
        budgets[3] = -5.0
        bids, _ = optimize_all(HillClimbBidder(), utilities, budgets, others, capacities)
        expected = scalar_reference(utilities, budgets, others, capacities)
        assert np.array_equal(bids, expected)
        assert np.all(bids[1] == 0.0) and np.all(bids[3] == 0.0)

    def test_single_resource_short_circuit(self):
        utilities = [LogUtility([1.0]), LogUtility([2.0]), LogUtility([0.5])]
        budgets = np.array([10.0, 0.0, 3.0])
        others = np.array([[5.0], [5.0], [5.0]])
        capacities = np.array([4.0])
        bids, _ = optimize_all(HillClimbBidder(), utilities, budgets, others, capacities)
        expected = scalar_reference(utilities, budgets, others, capacities)
        assert np.array_equal(bids, expected)

    def test_prebuilt_evaluator_gives_same_answer(self, mixed_setup):
        # A block of rows of the search's evaluator climbs exactly as an
        # evaluator compiled for those players alone: a scattered
        # multi-row block (mixed groups) and one-row (Gauss-Seidel) blocks.
        utilities, budgets, others, capacities = mixed_setup
        evaluator = BatchedUtilitySet(utilities)
        for block in ([1, 4, 8, 9], [0], [9]):
            rows = np.array(block)
            subset = [utilities[i] for i in block]
            with_eval, _ = HillClimbBidder().optimize_all(
                evaluator, rows, budgets[rows], others[rows], capacities
            )
            alone, _ = optimize_all(
                HillClimbBidder(), subset, budgets[rows], others[rows], capacities
            )
            assert np.array_equal(with_eval, alone)

    @pytest.mark.parametrize("bidder", [PriceTakingBidder, ExactBidder])
    @pytest.mark.parametrize("warm", [False, True])
    def test_other_bidders_return_no_marginals(self, bidder, warm):
        # Neither evaluates Equation 7 at the bids it returns.
        utilities = [LogUtility([1.0, 0.3], [1.0, 1.0]), LogUtility([0.5, 1.0], [1.0, 1.0])]
        budgets = np.array([100.0, 60.0])
        others = np.array([[50.0, 50.0], [30.0, 70.0]])
        capacities = np.array([10.0, 5.0])
        state = {}
        if warm:
            state = dict(current_bids=np.array([[70.0, 30.0], [20.0, 40.0]]),
                         step_hints=np.array([1.0, 1.0]))
        bids, marginals = optimize_all(
            bidder(), utilities, budgets, others, capacities, **state
        )
        assert marginals is None
        np.testing.assert_allclose(bids.sum(axis=1), budgets)


class TestDecisionRules:
    """The climb decides on Python floats by numpy's rules, which
    Python's ``max`` and ``min`` would change: the first index wins a
    tie, the first NaN wins ``argmax`` and ``argmin`` (so a NaN marginal
    on a resource the row does not bid on draws money), and a NaN hint
    or a non-finite seed is none.  Every block must climb to exactly the
    scalar climbs' bids."""

    AXIS = np.array([0.0, 1.0, 2.0, 4.0])

    def grid(self, values):
        return GridUtility2D(self.AXIS, self.AXIS, values)

    def concave_grid(self, scale):
        x, y = np.meshgrid(self.AXIS, self.AXIS, indexing="ij")
        return self.grid(scale * np.sqrt(1.0 + x) * np.sqrt(1.0 + 2.0 * y))

    def assert_climbs_as_scalar(self, utilities, budgets, others, capacities, **warm):
        with np.errstate(all="ignore"):
            bids, _ = optimize_all(
                HillClimbBidder(), utilities, budgets, others, capacities, **warm
            )
            expected = scalar_reference(utilities, budgets, others, capacities, **warm)
        assert bids.tobytes() == expected.tobytes()
        return bids

    @staticmethod
    def seed_marginals(utilities, bids, others, capacities):
        with np.errstate(all="ignore"):
            return marginal_utility_of_bids_batch(
                bids, others, capacities, BatchedUtilitySet(utilities),
                np.arange(len(utilities)),
            )

    def test_tied_marginals(self):
        # A plane with equal slopes ties both marginals at an equal
        # split (a stop) and ties a three-resource linear player's two
        # cheaper resources, where the first must draw the money.
        x, y = np.meshgrid(self.AXIS, self.AXIS, indexing="ij")
        plane = [self.grid(x + y), self.grid(2.0 * x + 2.0 * y)]
        budgets = np.array([10.0, 10.0])
        others = np.array([[12.0, 12.0], [6.0, 6.0]])
        capacities = np.array([4.0, 4.0])
        at_split = self.seed_marginals(plane, np.full((2, 2), 5.0), others, capacities)
        assert (at_split[:, 0] == at_split[:, 1]).all()
        bids = self.assert_climbs_as_scalar(plane, budgets, others, capacities)
        assert (bids == 5.0).all()
        self.assert_climbs_as_scalar(
            plane, budgets, others, capacities,
            current_bids=np.array([[7.0, 3.0], [2.0, 8.0]]), step_hints=np.array([1.0, 1.0]),
        )

        linear = [LinearUtility([1.0, 1.0, 1.0]), LinearUtility([2.0, 2.0, 2.0])]
        seed = np.array([[6.0, 2.0, 2.0], [2.0, 2.0, 6.0]])
        others = np.full((2, 3), 10.0)
        capacities = np.full(3, 5.0)
        marginals = self.seed_marginals(linear, seed, others, capacities)
        assert marginals[0, 1] == marginals[0, 2] and marginals[1, 0] == marginals[1, 1]
        bids = self.assert_climbs_as_scalar(
            linear, budgets, others, capacities, current_bids=seed, step_hints=np.array([2.0, 2.0])
        )
        assert bids[0, 1] > bids[0, 2] and bids[1, 0] > bids[1, 1]

    @pytest.fixture
    def unsanitized(self):
        """NaN marginals on purpose: the sanitizer, which stops any
        (``tests/qa/test_sanitizer.py``), is off for the test."""
        with sanitize.enabled(False):
            yield

    @pytest.mark.usefixtures("unsanitized")
    def test_nan_marginal_rows(self):
        # Rows 0 and 2 bid 1e-170 against nobody else, which squares to
        # 0 and makes dr/db 0/0: a NaN marginal on a resource the row
        # does not bid on, after a finite one.  argmax takes the NaN, so
        # the climb moves money onto it (Python's max would stop).  Row
        # 1's NaN cell gives a NaN marginal on a resource it bids on,
        # after a finite one: argmin takes it too, and the climb stops.
        nan_cell = self.concave_grid(1.0).values.copy()
        nan_cell[0, 0] = np.nan
        utilities = [
            self.concave_grid(1.0), self.grid(nan_cell),
            LogUtility([1.0, 0.5], [1.0, 1.0]), self.concave_grid(2.0),
        ]
        budgets = np.array([10.0, 6.0, 10.0, 10.0])
        seed = np.array([[10.0, 1e-170], [2.0, 4.0], [10.0, 1e-170], [5.0, 5.0]])
        others = np.array([[6.0, 0.0], [14.0, 12.0], [6.0, 0.0], [6.0, 6.0]])
        capacities = np.array([4.0, 4.0])
        marginals = self.seed_marginals(utilities, seed, others, capacities)
        assert np.isfinite(marginals[:3, 0]).all() and np.isnan(marginals[:3, 1]).all()
        bids = self.assert_climbs_as_scalar(
            utilities, budgets, others, capacities,
            current_bids=seed, step_hints=np.full(4, 1.0),
        )
        assert (bids[[0, 2], 1] > 1e-12).all() and (bids[1] == seed[1]).all()

    def test_zero_budget_rows(self):
        utilities = [self.concave_grid(s) for s in (1.0, 2.0, 3.0, 1.0, 2.0)]
        budgets = np.array([0.0, -0.0, -5.0, 20.0, 0.0])
        others = np.full((5, 2), 8.0)
        capacities = np.array([4.0, 4.0])
        seed = np.array([[1.0, 1.0], [0.0, 0.0], [3.0, 2.0], [15.0, 5.0], [-1.0, 1.0]])
        bids = self.assert_climbs_as_scalar(utilities, budgets, others, capacities)
        assert (bids[[0, 1, 2, 4]] == 0.0).all()
        self.assert_climbs_as_scalar(
            utilities, budgets, others, capacities,
            current_bids=seed, step_hints=np.full(5, 0.5),
        )

    @pytest.mark.usefixtures("unsanitized")
    def test_nan_seeds_and_hints(self):
        # Non-finite seed rows start cold; a NaN hint leaves its warm
        # row a cold step, also where the seed's marginals are too close
        # to be stale (row 2, 7% apart); hints are clipped into [2% of
        # the budget, the cold step], bounds included.
        utilities = [self.concave_grid(s) for s in (1.0, 2.0, 3.0, 1.5, 2.5, 0.5)]
        budgets = np.full(6, 20.0)
        others = np.array(
            [[8.0, 2.0], [2.0, 8.0], [5.0, 5.0], [8.0, 2.0], [2.0, 8.0], [1.0, 9.0]]
        )
        capacities = np.array([4.0, 4.0])
        seed = np.array(
            [[np.nan, 5.0], [15.0, np.inf], [9.25, 10.75], [4.0, 16.0], [10.0, 10.0], [3.0, 17.0]]
        )
        marginals = self.seed_marginals(utilities, seed, others, capacities)[2]
        assert 0.05 < (marginals.max() - marginals.min()) / marginals.max() <= 0.1
        hints = np.array([1.0, 1.0, np.nan, np.nan, 0.4, 100.0])
        self.assert_climbs_as_scalar(
            utilities, budgets, others, capacities, current_bids=seed, step_hints=hints
        )
        self.assert_climbs_as_scalar(
            utilities, budgets, others, capacities,
            current_bids=seed, step_hints=np.full(6, np.nan),
        )

    def test_three_resource_market(self):
        # Non-grid players over three resources, one of them with no
        # capacity and one nobody else bids on.
        utilities = [
            LogUtility([1.0, 0.5, 2.0], [2.0, 1.0, 3.0]),
            SaturatingUtility([1.0, 2.0, 0.5], [4.0, 1.0, 2.0]),
            PowerUtility([0.5, 1.0, 1.0], [0.5, 0.3, 0.9]),
            LinearUtility([1.0, 1.0, 1.0]),
            LogUtility([0.2, 0.2, 3.0], [1.0, 1.0, 1.0]),
        ]
        budgets = np.array([30.0, 12.0, 0.0, 25.0, 40.0])
        others = np.array(
            [[10.0, 5.0, 0.0], [20.0, 2.0, 8.0], [5.0, 5.0, 5.0], [9.0, 9.0, 9.0], [1.0, 40.0, 3.0]]
        )
        capacities = np.array([10.0, 0.0, 5.0])
        self.assert_climbs_as_scalar(utilities, budgets, others, capacities)
        self.assert_climbs_as_scalar(
            utilities, budgets, others, capacities,
            current_bids=np.array(
                [[10.0, 10.0, 10.0], [1.0, 1.0, 10.0], [0.0, 0.0, 0.0],
                 [5.0, 5.0, 15.0], [np.nan, 1.0, 1.0]]
            ),
            step_hints=np.array([2.0, np.nan, 1.0, 0.1, 3.0]),
        )


class TestFindEquilibriumLockstep:
    def _market(self, problem):
        return problem.build_market(np.full(problem.num_players, 100.0))

    def test_vector_matches_scalar_bitwise(self, bbpc_problem):
        market = self._market(bbpc_problem)
        scalar = find_equilibrium(market, bidder=ScalarHillClimbBidder())
        vector = find_equilibrium(market, bidder=HillClimbBidder())
        assert np.array_equal(vector.state.bids, scalar.state.bids)
        assert np.array_equal(vector.state.allocations, scalar.state.allocations)
        assert np.array_equal(vector.lambdas, scalar.lambdas)
        assert vector.converged == scalar.converged
        assert vector.iterations == scalar.iterations

    def test_warm_verification_round_matches_scalar(self, bbpc_problem):
        market = self._market(bbpc_problem)
        cold = find_equilibrium(market, bidder=HillClimbBidder())
        warm_scalar = find_equilibrium(
            market, bidder=ScalarHillClimbBidder(), warm_start=cold.warm_start
        )
        warm_vector = find_equilibrium(
            market, bidder=HillClimbBidder(), warm_start=cold.warm_start
        )
        assert warm_vector.iterations == warm_scalar.iterations
        assert np.array_equal(warm_vector.state.bids, warm_scalar.state.bids)
        # The reused-lambda fast path must still agree bitwise with the
        # scalar path's freshly computed lambdas.
        assert np.array_equal(warm_vector.lambdas, warm_scalar.lambdas)

    def test_warm_block_returns_equation_7_marginals_at_its_bids(self, bbpc_problem):
        market = self._market(bbpc_problem)
        seed = find_equilibrium(market).warm_start
        bids = seed.bids
        evaluator = market.evaluator
        everyone = np.arange(market.num_players)
        others = bids.sum(axis=0)[None, :] - bids
        new_bids, marginals = HillClimbBidder().optimize_all(
            evaluator, everyone, market.budgets, others, market.capacities,
            current_bids=bids, step_hints=seed.last_moves,
        )
        assert marginals is not None
        expected = marginal_utility_of_bids_batch(
            new_bids, others, market.capacities, evaluator=evaluator, players=everyone
        )
        assert marginals.tobytes() == expected.tobytes()

    def test_warm_verification_round_reuses_climb_marginals(self, bbpc_problem):
        market = self._market(bbpc_problem)
        cold = find_equilibrium(market, bidder=HillClimbBidder())
        warm = find_equilibrium(
            market, bidder=HillClimbBidder(), warm_start=cold.warm_start
        )
        assert warm.iterations == 1
        # One batched dispatch in all: the staleness probe covers every
        # (hinted) row and no bid moves before the climb's first
        # iteration, so that iteration reuses the probe's marginals; the
        # final lambda collection reuses the climb's in turn.
        assert warm.eval_counts["batch_gradient_calls"] == 1

    def test_default_bidder_is_lockstep(self, bbpc_problem):
        market = self._market(bbpc_problem)
        default = find_equilibrium(market)
        explicit = find_equilibrium(market, bidder=HillClimbBidder())
        assert np.array_equal(default.state.bids, explicit.state.bids)
        assert default.eval_counts["batch_gradient_calls"] > 0


class TestGaussSeidelIncrementalTotals:
    def test_matches_recomputed_sum_oracle(self, bbpc_problem):
        """The O(N*M)-per-round running totals must reproduce the old
        recompute-``bids.sum(axis=0)``-per-player semantics: identical
        convergence and bids within float-dust (1e-9 of budget)."""
        market = bbpc_problem.build_market(
            np.full(bbpc_problem.num_players, 100.0)
        )
        result = find_equilibrium(
            market, bidder=HillClimbBidder(), update="gauss-seidel"
        )

        # Reference loop: the pre-optimization Gauss-Seidel semantics,
        # re-summing the whole bid matrix for every player.
        bidder = HillClimbBidder()
        capacities = market.capacities
        bids = market.equal_split_bids()
        prices = market.prices(bids)
        last_moves = None
        converged = False
        iterations = 0
        for iterations in range(1, 31):
            previous_bids = bids
            resume = iterations > 1
            bids = bids.copy()
            for i, utility in enumerate(market.problem.utilities):
                others = bids.sum(axis=0) - bids[i]
                bids[i] = best_response(
                    bidder,
                    utility,
                    market.budgets[i],
                    others,
                    capacities,
                    current_bids=bids[i] if resume else None,
                    step_hint=None if last_moves is None else float(last_moves[i]),
                )
            new_prices = market.prices(bids)
            last_moves = np.abs(bids - previous_bids).max(axis=1)
            stable = np.abs(new_prices - prices) <= 0.01 * np.where(
                np.maximum(np.abs(prices), np.abs(new_prices)) > 0.0,
                np.maximum(np.abs(prices), np.abs(new_prices)),
                1.0,
            )
            prices = new_prices
            if np.all(stable):
                converged = True
                break

        assert result.converged == converged
        assert result.iterations == iterations
        np.testing.assert_allclose(
            result.state.bids, bids, rtol=0.0, atol=1e-9 * 100.0
        )


@pytest.mark.parametrize("update", ["jacobi", "gauss-seidel"])
def test_search_compiles_one_evaluator(monkeypatch, bbpc_problem, update):
    """Every round of either update mode best-responds through the one
    evaluator the search compiles; the final utilities reuse it too."""
    # A copy of the shared problem, so no earlier test compiled its plan.
    problem = dataclasses.replace(bbpc_problem)
    compiled = []
    compile_plan = BatchedUtilitySet._compile

    def counting(self):
        compiled.append(len(self.utilities))
        compile_plan(self)

    monkeypatch.setattr(BatchedUtilitySet, "_compile", counting)
    market = problem.build_market(np.full(bbpc_problem.num_players, 100.0))
    result = find_equilibrium(market, update=update)
    assert result.iterations > 1
    assert compiled == [market.num_players]
    assert result.eval_counts["batch_value_calls"] == 1
    assert result.eval_counts["scalar_calls"] == 0


def test_rebudget_compiles_one_evaluator(monkeypatch):
    """Every ReBudget round searches the same market, so all rounds
    share the market's one evaluator; building the market compiles
    nothing."""
    bundle = generate_bundles("CPBN", 8, count=1, seed=2016)[0]
    problem = ChipModel(cmp_8core(), bundle.apps).build_problem()
    compiled = []
    compile_plan = BatchedUtilitySet._compile

    def counting(self):
        compiled.append(len(self.utilities))
        compile_plan(self)

    monkeypatch.setattr(BatchedUtilitySet, "_compile", counting)
    market = problem.build_market(np.full(problem.num_players, 100.0))
    assert compiled == []
    result = run_rebudget(market, ReBudgetConfig(step=40.0))
    assert len(result.rounds) > 1
    assert compiled == [market.num_players]


def test_allocation_compiles_one_evaluator(monkeypatch):
    """The market's search and the result's envy scoring share the
    problem's one evaluator, and each player's own utility is the envy
    matrix's diagonal, bitwise its scalar ``value``."""
    bundle = generate_bundles("CPBN", 8, count=1, seed=2016)[0]
    problem = ChipModel(cmp_8core(), bundle.apps).build_problem()
    compiled = []
    compile_plan = BatchedUtilitySet._compile

    def counting(self):
        compiled.append(len(self.utilities))
        compile_plan(self)

    monkeypatch.setattr(BatchedUtilitySet, "_compile", counting)
    result = EqualBudget().allocate(problem)
    assert compiled == [problem.num_players]
    own = [u.value(r) for u, r in zip(problem.utilities, result.allocations)]
    assert result.utilities.tobytes() == np.array(own).tobytes()


def test_gauss_seidel_keeps_scalar_path(bbpc_problem):
    """GS rounds are sequential by construction: one one-row
    ``optimize_all`` call per player must agree bitwise with the scalar
    reference climb."""
    market = bbpc_problem.build_market(np.full(bbpc_problem.num_players, 100.0))
    scalar = find_equilibrium(
        market, bidder=ScalarHillClimbBidder(), update="gauss-seidel"
    )
    single = find_equilibrium(market, bidder=HillClimbBidder(), update="gauss-seidel")
    assert np.array_equal(single.state.bids, scalar.state.bids)
    assert np.array_equal(single.lambdas, scalar.lambdas)
    assert single.iterations == scalar.iterations


class TestLambdaReuse:
    """The final lambdas reuse the marginals a Jacobi round's block call
    returned, and re-derive them after one-row (Gauss-Seidel) blocks or
    from a bidder that returns none."""

    @staticmethod
    def _settled_market():
        # Symmetric players for whom the equal split is already optimal:
        # nobody moves, so the first round converges with all-zero last
        # moves — every reuse precondition except the bidder's own holds.
        return make_market(
            [LogUtility([1.0, 1.0], [1.0, 1.0]) for _ in range(3)], [10.0, 10.0]
        )

    @staticmethod
    def _solve(monkeypatch, market, **kwargs):
        calls = []
        batch = equilibrium_module.marginal_utility_of_bids_batch

        def counting(*args, **kw):
            calls.append(1)
            return batch(*args, **kw)

        monkeypatch.setattr(equilibrium_module, "marginal_utility_of_bids_batch", counting)
        result = find_equilibrium(market, **kwargs)
        assert result.iterations == 1 and result.converged
        assert not np.any(result.warm_start.last_moves > 0.0)
        return result, len(calls)

    @staticmethod
    def _eq7_lambdas(market, bids):
        totals = bids.sum(axis=0)
        return np.array([
            player_lambda(u, bids[i], totals - bids[i], market.capacities)
            for i, u in enumerate(market.problem.utilities)
        ])

    def test_reused_after_lockstep_jacobi_round(self, monkeypatch):
        market = self._settled_market()
        result, recomputed = self._solve(monkeypatch, market)
        assert recomputed == 0
        assert np.array_equal(result.lambdas, self._eq7_lambdas(market, result.state.bids))

    def test_not_reused_after_gauss_seidel_rounds(self, monkeypatch):
        market = self._settled_market()
        result, recomputed = self._solve(
            monkeypatch, market, bidder=HillClimbBidder(), update="gauss-seidel"
        )
        assert recomputed == 1
        assert np.array_equal(result.lambdas, self._eq7_lambdas(market, result.state.bids))

    def test_not_reused_for_price_taking(self, monkeypatch):
        market = self._settled_market()
        result, recomputed = self._solve(monkeypatch, market, bidder=PriceTakingBidder())
        assert recomputed == 1
        # lambda_i stays the Equation 7 value, not the price-taking marginal.
        assert np.array_equal(result.lambdas, self._eq7_lambdas(market, result.state.bids))


@st.composite
def concave_markets(draw):
    """Random concave players against fixed others' bids, with warm state.

    Covers zero and negative budgets, all-zero others on a resource, a
    zero-capacity resource, warm rows computed for a different budget,
    and flat (saturated) utility regions that make marginals tie.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_players = draw(st.integers(1, 5))
    num_resources = draw(st.integers(2, 4))
    capacities = rng.uniform(0.5, 20.0, size=num_resources)
    if draw(st.booleans()):
        capacities[rng.integers(num_resources)] = 0.0
    utilities = []
    for _ in range(num_players):
        weights = rng.uniform(0.05, 5.0, size=num_resources)
        kind = draw(st.sampled_from(["log", "power", "saturating"]))
        if kind == "log":
            utilities.append(LogUtility(weights, rng.uniform(0.5, 5.0, size=num_resources)))
        elif kind == "power":
            utilities.append(PowerUtility(weights, rng.uniform(0.2, 1.0, size=num_resources)))
        else:
            utilities.append(SaturatingUtility(weights, rng.uniform(0.5, 10.0, size=num_resources)))
    budgets = rng.uniform(1.0, 200.0, size=num_players)
    budgets[rng.random(num_players) < 0.15] = 0.0
    others = rng.uniform(0.0, 100.0, size=(num_players, num_resources))
    others[rng.random(others.shape) < 0.15] = 0.0
    current_bids = step_hints = None
    if draw(st.booleans()):
        split = rng.dirichlet(np.ones(num_resources), size=num_players)
        # Most rows match their budget; the rest were bid under another.
        scale = np.where(rng.random(num_players) < 0.8, budgets, budgets + 10.0)
        current_bids = split * scale[:, None]
        if draw(st.booleans()):
            step_hints = rng.uniform(0.01, 50.0, size=num_players)
    return utilities, budgets, others, capacities, current_bids, step_hints


@pytest.mark.parametrize(
    "single, oracle",
    [(HillClimbBidder, ScalarHillClimbBidder), (PriceTakingBidder, ScalarPriceTakingBidder)],
    ids=["price-anticipating", "price-taking"],
)
@given(market=concave_markets())
@settings(max_examples=60, deadline=None)
def test_single_climb_equals_scalar_oracle(single, oracle, market):
    utilities, budgets, others, capacities, current_bids, step_hints = market
    evaluator = BatchedUtilitySet(utilities)
    everyone = np.arange(len(utilities))
    with np.errstate(divide="ignore", invalid="ignore"):
        bids, marginals = single().optimize_all(
            evaluator, everyone, budgets, others, capacities,
            current_bids=current_bids, step_hints=step_hints,
        )
        expected = scalar_reference(
            utilities, budgets, others, capacities,
            current_bids=current_bids, step_hints=step_hints, bidder=oracle(),
        )
        at_bids = marginal_utility_of_bids_batch(
            bids, others, capacities, evaluator=evaluator, players=everyone
        )
    assert np.array_equal(bids, expected)
    if single is PriceTakingBidder:
        assert marginals is None
    elif marginals is not None:
        # Rows the climb did not evaluate at their returned bids are
        # NaN; every other row holds the marginals at its bids.
        fresh = ~np.isnan(marginals).any(axis=1)
        assert marginals[fresh].tobytes() == at_bids[fresh].tobytes()
