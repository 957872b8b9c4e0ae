"""Runtime invariant sanitizer: gating, per-invariant trips, and the
end-to-end injections through the market/rebudget/mechanism/hull seams.

Every invariant must (a) raise :class:`SanitizerError` naming itself
when armed and fed a violation, and (b) stay silent — a true no-op —
when the sanitizer is off.
"""

import numpy as np
import pytest

from repro.cmp import utility_builder
from repro.core import (
    AllocationMechanism,
    AllocationProblem,
    Market,
    ReBudgetConfig,
    marginal_utility_of_bids_batch,
    run_rebudget,
)
from repro.exceptions import SanitizerError
from repro.qa import sanitize
from repro.utility import BatchedUtilitySet, LogUtility, UtilityFunction


@pytest.fixture
def restore_active():
    previous = sanitize.ACTIVE
    yield
    sanitize.ACTIVE = previous


def trips(invariant):
    """Context asserting a SanitizerError naming ``invariant``."""
    return pytest.raises(SanitizerError, match=invariant)


def cliff_grid():
    """A cliffy grid (an mcf-style step along cache) that hulls."""
    cache, power = np.arange(5.0), np.array([[0.0, 1.0, 2.5]])
    step = np.where(cache >= 3.0, 1.0, 0.1)
    return cache, power, (step[:, None] * np.sqrt(power[0] + 1.0))[None]


class TestGating:
    def test_refresh_reads_environment(self, monkeypatch, restore_active):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.refresh() is True
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert sanitize.refresh() is False
        monkeypatch.delenv("REPRO_SANITIZE")
        assert sanitize.refresh() is False

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no", "False"])
    def test_disabling_spellings(self, monkeypatch, restore_active, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize.refresh() is False

    def test_enabled_context_restores_previous_state(self, restore_active):
        sanitize.ACTIVE = False
        with sanitize.enabled():
            assert sanitize.ACTIVE is True
            with sanitize.enabled(False):
                assert sanitize.ACTIVE is False
            assert sanitize.ACTIVE is True
        assert sanitize.ACTIVE is False

    def test_enabled_restores_on_error(self, restore_active):
        sanitize.ACTIVE = False
        with pytest.raises(RuntimeError):
            with sanitize.enabled():
                raise RuntimeError("boom")
        assert sanitize.ACTIVE is False


class TestDirectChecks:
    """Each check function trips on its violation and names the invariant."""

    def test_negative_price(self):
        with trips("price-nonnegative") as err:
            sanitize.check_prices(np.array([1.0, -0.5]))
        assert err.value.invariant == "price-nonnegative"

    def test_non_finite_price(self):
        with trips("price-nonnegative"):
            sanitize.check_prices(np.array([1.0, np.nan]))

    def test_valid_prices_pass(self):
        sanitize.check_prices(np.array([0.0, 2.5]))

    def test_overspending(self):
        bids = np.array([[60.0, 60.0], [10.0, 10.0]])
        with trips("spending-within-budget") as err:
            sanitize.check_spending(bids, np.array([100.0, 100.0]))
        assert err.value.invariant == "spending-within-budget"
        assert "player 0" in str(err.value)

    def test_spending_at_budget_passes(self):
        bids = np.array([[50.0, 50.0], [10.0, 10.0]])
        sanitize.check_spending(bids, np.array([100.0, 100.0]))

    def test_overallocation(self):
        alloc = np.array([[8.0, 3.0], [8.0, 1.0]])
        with trips("allocation-within-capacity") as err:
            sanitize.check_allocation(alloc, np.array([10.0, 5.0]))
        assert err.value.invariant == "allocation-within-capacity"

    def test_negative_allocation(self):
        alloc = np.array([[-1.0, 3.0], [1.0, 1.0]])
        with trips("allocation-within-capacity"):
            sanitize.check_allocation(alloc, np.array([10.0, 5.0]))

    def test_full_capacity_allocation_passes(self):
        alloc = np.array([[5.0, 2.5], [5.0, 2.5]])
        sanitize.check_allocation(alloc, np.array([10.0, 5.0]))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_unit_interval_violations(self, bad):
        with trips("mur-in-unit-interval") as err:
            sanitize.check_unit_interval("MUR", bad)
        assert err.value.invariant == "mur-in-unit-interval"

    def test_unit_interval_names_follow_metric(self):
        with trips("mbr-in-unit-interval") as err:
            sanitize.check_unit_interval("MBR", 2.0)
        assert err.value.invariant == "mbr-in-unit-interval"

    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_unit_interval_endpoints_pass(self, ok):
        sanitize.check_unit_interval("MUR", ok)

    def test_budget_below_floor(self):
        with trips("rebudget-budget-floor") as err:
            sanitize.check_budget_floor(
                np.array([100.0, 39.0]), floor=40.0, initial_budget=100.0
            )
        assert err.value.invariant == "rebudget-budget-floor"

    def test_budget_above_initial(self):
        with trips("rebudget-budget-floor"):
            sanitize.check_budget_floor(
                np.array([120.0, 80.0]), floor=40.0, initial_budget=100.0
            )

    def test_budget_on_floor_passes(self):
        sanitize.check_budget_floor(
            np.array([100.0, 40.0]), floor=40.0, initial_budget=100.0
        )

    def test_per_player_overallocation(self):
        # The per-player form: a single row exceeding capacity trips even
        # though no column total is computed.
        with trips("allocation-within-capacity") as err:
            sanitize.check_player_allocations(
                np.array([[12.0, 3.0]]), np.array([10.0, 5.0])
            )
        assert err.value.invariant == "allocation-within-capacity"

    def test_per_player_negative_allocation(self):
        with trips("allocation-within-capacity"):
            sanitize.check_player_allocations(
                np.array([-0.5, 3.0]), np.array([10.0, 5.0])
            )

    def test_per_player_allocation_at_capacity_passes(self):
        sanitize.check_player_allocations(
            np.array([[10.0, 5.0], [0.0, 0.0]]), np.array([10.0, 5.0])
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_marginal(self, bad):
        with trips("marginal-finite") as err:
            sanitize.check_marginals(np.array([[1.0, bad]]))
        assert err.value.invariant == "marginal-finite"

    def test_finite_marginals_pass(self):
        sanitize.check_marginals(np.array([[0.0, 1e12], [3.5, 0.1]]))

    def test_converged_flag_with_moving_prices(self):
        history = [np.array([1.0, 1.0]), np.array([2.0, 1.0])]
        with trips("equilibrium-convergence-flag") as err:
            sanitize.check_convergence(True, history, tolerance=0.01)
        assert err.value.invariant == "equilibrium-convergence-flag"

    def test_converged_flag_with_stable_prices_passes(self):
        history = [np.array([1.0, 1.0]), np.array([1.0001, 1.0])]
        sanitize.check_convergence(True, history, tolerance=0.01)

    def test_non_converged_run_is_unconstrained(self):
        # The inverse direction is deliberately unchecked: a warm start
        # refused near the iteration cap may end stable yet unconverged.
        history = [np.array([1.0, 1.0]), np.array([5.0, 1.0])]
        sanitize.check_convergence(False, history, tolerance=0.01)


class TestHullChecks:
    """``hull-dominates-raw`` / ``hull-concave`` on ``(G, C, P)`` stacks."""

    cache = np.arange(4.0)
    power = np.array([[0.0, 1.0, 3.0]])

    def concave(self):
        return (np.sqrt(self.cache + 1.0)[:, None] + np.sqrt(self.power[0] + 1.0))[None]

    def test_concave_grid_on_its_raw_passes(self):
        grid = self.concave()
        sanitize.check_hull(self.cache, self.power, grid, grid)

    def test_value_below_raw(self):
        grid = self.concave()
        lowered = grid.copy()
        lowered[0, 2, 1] -= 1e-9
        with trips("hull-dominates-raw"):
            sanitize.check_hull(self.cache, self.power, grid, lowered)

    @pytest.mark.parametrize("cell, axis", [((2, 0), "cache"), ((0, 1), "power")])
    def test_knot_below_its_chord(self, cell, axis):
        dipped = self.concave()
        dipped[(0,) + cell] -= 1.0
        with trips("hull-concave") as error:
            sanitize.check_hull(self.cache, self.power, dipped, dipped)
        assert f"the {axis} axis" in str(error.value)

    def test_slack_within_the_settle_tolerance_passes(self):
        grid = self.concave()
        nudged = grid.copy()
        nudged[0, 1, 1] -= 5e-13
        sanitize.check_hull(self.cache, self.power, grid, nudged)

    def test_nan_cells_pass(self):
        grid = self.concave()
        grid[0, 1, 1] = np.nan
        sanitize.check_hull(self.cache, self.power, grid, grid)


class TestEndToEndInjections:
    """Violations injected through the real seams trip the sanitizer —
    and pass silently when it is disabled."""

    def overspent_bids(self, market):
        # Row sums of 160 against budgets of 100; the market itself does
        # not police spending, only the sanitizer does.
        return np.full((market.num_players, market.num_resources), 80.0)

    def test_overspending_bids_trip_market_allocate(self, small_market):
        with sanitize.enabled():
            with trips("spending-within-budget"):
                small_market.allocate(self.overspent_bids(small_market))

    def test_overspending_bids_pass_when_disabled(self, small_market):
        with sanitize.enabled(False):
            state = small_market.allocate(self.overspent_bids(small_market))
        assert state.allocations.shape == (3, 2)

    def test_negative_price_trips_market_allocate(self, small_market, monkeypatch):
        # Bypass the market's own bid validation so a negative bid
        # matrix reaches pricing — the sanitizer is the backstop.
        monkeypatch.setattr(
            Market, "_check_bids", lambda self, bids: np.asarray(bids, dtype=float)
        )
        bad_bids = np.full((3, 2), -10.0)
        with sanitize.enabled():
            with trips("price-nonnegative"):
                small_market.allocate(bad_bids)
        with sanitize.enabled(False):
            small_market.allocate(bad_bids)  # unchecked: no error

    def rogue_problem(self):
        return AllocationProblem(
            utilities=[
                LogUtility([1.0, 0.2], [1.0, 1.0]),
                LogUtility([0.2, 1.0], [1.0, 1.0]),
            ],
            capacities=np.array([10.0, 5.0]),
            resource_names=("cache", "power"),
            player_names=("a", "b"),
        )

    def test_overallocating_mechanism_trips_finish(self):
        class RogueMechanism(AllocationMechanism):
            name = "Rogue"

            def allocate(self, problem):
                # Grants every player the full capacity vector: column
                # totals are 2x capacity.
                n = problem.num_players
                return self._finish(problem, np.tile(problem.capacities, (n, 1)))

        problem = self.rogue_problem()
        with sanitize.enabled():
            with trips("allocation-within-capacity"):
                RogueMechanism().allocate(problem)
        with sanitize.enabled(False):
            result = RogueMechanism().allocate(problem)
        assert result.allocations.sum() > problem.capacities.sum()

    class NaNGradient(UtilityFunction):
        """Utility whose gradients are poisoned (one-row and batch alike)."""

        num_resources = 2

        def _value_batch(self, points):
            return np.ones(points.shape[0])

        def _gradient_batch(self, points):
            return np.tile([np.nan, 1.0], (points.shape[0], 1))

    def test_nan_gradient_trips_one_row_marginal_seam(self):
        # The exact bidder's one-row blocks run the same check.
        bids = np.array([[10.0, 10.0]])
        others = np.array([[5.0, 5.0]])
        capacities = np.array([10.0, 5.0])
        evaluator = BatchedUtilitySet([self.NaNGradient()])
        with sanitize.enabled():
            with trips("marginal-finite"):
                marginal_utility_of_bids_batch(bids, others, capacities, evaluator)
        with sanitize.enabled(False):
            out = marginal_utility_of_bids_batch(bids, others, capacities, evaluator)
        assert np.isnan(out[0, 0])  # unchecked: the NaN flows through

    def test_nan_gradient_trips_batched_marginal_seam(self):
        utility = self.NaNGradient()
        bids = np.array([[10.0, 10.0], [20.0, 5.0]])
        others = np.array([[5.0, 5.0], [1.0, 9.0]])
        capacities = np.array([10.0, 5.0])
        evaluator = BatchedUtilitySet([utility, utility])
        with sanitize.enabled():
            with trips("marginal-finite"):
                marginal_utility_of_bids_batch(bids, others, capacities, evaluator)
        with sanitize.enabled(False):
            out = marginal_utility_of_bids_batch(bids, others, capacities, evaluator)
        assert np.isnan(out[:, 0]).all()

    def test_sub_floor_budget_trips_rebudget(self, small_market, monkeypatch):
        # Force a floor *above* the initial budget: every player starts
        # below it, which the real resolve() can never produce.
        monkeypatch.setattr(ReBudgetConfig, "resolve", lambda self: (10.0, 120.0))
        config = ReBudgetConfig(step=20.0)
        with sanitize.enabled():
            with trips("rebudget-budget-floor"):
                run_rebudget(small_market, config)
        with sanitize.enabled(False):
            result = run_rebudget(small_market, config)
        assert result.rounds  # unchecked run completes

    def test_identity_hull_trips_convexify_grid(self, monkeypatch):
        # A hull that returns its lines settles on the first pass with
        # the cliff still in the grid.
        monkeypatch.setattr(utility_builder, "hull_lines", lambda xs, lines: lines.copy())
        cache, power, values = cliff_grid()
        with sanitize.enabled():
            with trips("hull-concave"):
                utility_builder.convexify_grid(cache, power, values)
        with sanitize.enabled(False):
            utility_builder.convexify_grid(cache, power, values)

    def test_lowering_hull_trips_convexify_grid(self, monkeypatch):
        # Clipping is idempotent, so the grid settles on the second pass
        # below its raw samples.
        monkeypatch.setattr(
            utility_builder, "hull_lines", lambda xs, lines: np.minimum(lines, 0.5)
        )
        cache, power, values = cliff_grid()
        with sanitize.enabled():
            with trips("hull-dominates-raw"):
                utility_builder.convexify_grid(cache, power, values)


class TestHonestPathStaysClean:
    def test_sanitized_convexify_passes(self):
        cache, power, values = cliff_grid()
        with sanitize.enabled():
            hulled = utility_builder.convexify_grid(cache, power, values)
        assert (hulled >= values).all()

    def test_sanitized_rebudget_run_passes(self, small_market):
        with sanitize.enabled():
            result = run_rebudget(small_market, ReBudgetConfig(step=20.0))
        assert result.final.mbr <= 1.0
        assert result.final_budgets.min() >= 0.0

    def test_sanitized_market_clearing_passes(self, small_market):
        with sanitize.enabled():
            state = small_market.allocate(small_market.equal_split_bids())
        assert state.prices.min() >= 0.0


class TestDisabledFastPath:
    def test_checks_are_skipped_entirely_when_inactive(
        self, small_market, monkeypatch
    ):
        # Booby-trap every check: if any call-site guard evaluates the
        # check while ACTIVE is False, the trap fires.  allocate() must
        # still succeed — proving the disabled path never enters the
        # sanitizer at all, not merely that checks pass.
        def boom(*_args, **_kwargs):
            raise AssertionError("sanitizer entered while disabled")

        for name in (
            "check_prices",
            "check_spending",
            "check_allocation",
            "check_player_allocations",
            "check_marginals",
            "check_unit_interval",
            "check_budget_floor",
            "check_convergence",
            "check_hull",
        ):
            monkeypatch.setattr(sanitize, name, boom)

        with sanitize.enabled(False):
            state = small_market.allocate(small_market.equal_split_bids())
            run_rebudget(small_market, ReBudgetConfig(step=20.0))
            utility_builder.convexify_grid(*cliff_grid())
        assert state.allocations.shape == (3, 2)
