"""Allocation mechanisms behind the Figure 4/5 comparison."""

import numpy as np
import pytest

from repro.core import (
    AllocationProblem,
    BalancedBudget,
    ElasticitiesProportional,
    EqualBudget,
    EqualShare,
    MaxEfficiency,
    ReBudgetMechanism,
    standard_mechanism_suite,
)
from repro.exceptions import MarketConfigurationError
from repro.utility import CobbDouglasUtility, LogUtility, SaturatingUtility


@pytest.fixture
def synthetic_problem():
    """Three heterogeneous players over two abstract resources."""
    return AllocationProblem(
        utilities=[
            LogUtility([2.0, 0.5], [1.0, 1.0]),
            LogUtility([0.5, 2.0], [1.0, 1.0]),
            SaturatingUtility([0.3, 0.3], [1.0, 1.0]),
        ],
        capacities=np.array([10.0, 10.0]),
        resource_names=["cache", "power"],
        player_names=["a", "b", "c"],
        quanta=np.array([0.25, 0.25]),
    )


class TestAllocationProblem:
    def test_default_quanta(self):
        problem = AllocationProblem(
            utilities=[LogUtility([1.0])],
            capacities=np.array([256.0]),
            resource_names=["cache"],
            player_names=["p"],
        )
        np.testing.assert_allclose(problem.quanta, [1.0])

    def test_validation(self):
        with pytest.raises(MarketConfigurationError):
            AllocationProblem(
                utilities=[],
                capacities=np.array([1.0]),
                resource_names=["x"],
                player_names=[],
            )
        with pytest.raises(MarketConfigurationError):
            AllocationProblem(
                utilities=[LogUtility([1.0])],
                capacities=np.array([1.0]),
                resource_names=["x", "y"],
                player_names=["p"],
            )

    @pytest.mark.parametrize(
        "mechanism",
        standard_mechanism_suite() + [ElasticitiesProportional()],
        ids=lambda mechanism: mechanism.name,
    )
    @pytest.mark.parametrize(
        "bad",
        [
            {"capacities": [np.nan, 10.0]},
            {"capacities": [np.inf, 10.0]},
            {"capacities": [10.0, -np.inf]},
            {"capacities": [-1.0, 10.0]},
            {"quanta": [0.25]},
            {"quanta": [[0.25, 0.25]]},
            {"per_player_caps": np.full((2, 2), 5.0)},
            {"per_player_caps": np.full((2, 3), 5.0)},
            {"per_player_caps": np.full(2, 5.0)},
        ],
        ids=[
            "nan-capacity",
            "inf-capacity",
            "neg-inf-capacity",
            "negative-capacity",
            "short-quanta",
            "2d-quanta",
            "caps-missing-a-player",
            "caps-transposed",
            "caps-1d",
        ],
    )
    def test_bad_inputs_raise_before_any_mechanism_runs(self, bad, mechanism):
        kwargs = {
            "utilities": [LogUtility([1.0, 1.0]) for _ in range(3)],
            "capacities": [10.0, 10.0],
            "resource_names": ["cache", "power"],
            "player_names": ["a", "b", "c"],
            "quanta": [0.25, 0.25],
        }
        with pytest.raises(MarketConfigurationError):
            mechanism.allocate(AllocationProblem(**{**kwargs, **bad}))

    def test_zero_capacity_is_accepted(self):
        problem = AllocationProblem(
            utilities=[LogUtility([1.0, 1.0])],
            capacities=np.array([0.0, 10.0]),
            resource_names=["cache", "power"],
            player_names=["p"],
        )
        # A zero capacity hands out no quanta, so its default quantum is
        # any positive one; a positive capacity keeps 1/256 of itself.
        assert problem.quanta[0] > 0.0
        assert problem.quanta[1] == 10.0 / 256.0

    def test_build_market(self, synthetic_problem):
        market = synthetic_problem.build_market([10.0, 20.0, 30.0])
        np.testing.assert_allclose(market.budgets, [10.0, 20.0, 30.0])
        assert market.problem is synthetic_problem
        assert market.evaluator is synthetic_problem.evaluator


class TestEqualShare:
    def test_even_split(self, synthetic_problem):
        result = EqualShare().allocate(synthetic_problem)
        np.testing.assert_allclose(result.allocations, np.full((3, 2), 10.0 / 3.0))
        assert result.envy_freeness == pytest.approx(1.0)

    def test_metrics_populated(self, synthetic_problem):
        result = EqualShare().allocate(synthetic_problem)
        assert result.efficiency == pytest.approx(float(result.utilities.sum()))
        assert result.mechanism == "EqualShare"


class TestEqualBudget:
    def test_equilibrium_metrics(self, synthetic_problem):
        result = EqualBudget().allocate(synthetic_problem)
        assert result.mbr == pytest.approx(1.0)
        assert result.mur is not None and 0.0 <= result.mur <= 1.0
        assert result.iterations >= 1
        np.testing.assert_allclose(result.budgets, 100.0)
        np.testing.assert_allclose(
            result.allocations.sum(axis=0), synthetic_problem.capacities, rtol=1e-9
        )

    def test_beats_equal_share_on_heterogeneous_problem(self, synthetic_problem):
        share = EqualShare().allocate(synthetic_problem)
        market = EqualBudget().allocate(synthetic_problem)
        assert market.efficiency >= share.efficiency - 1e-9


class TestBalancedBudget:
    @pytest.fixture
    def offset_problem(self):
        """Players with non-zero minimum utilities (free minimums).

        Potential = (U_max - U_min) / U_max differs only when U_min > 0,
        which is the normal CMP situation (every core's free resources
        already buy some performance).
        """
        from repro.utility import ScaledUtility

        return AllocationProblem(
            utilities=[
                ScaledUtility(LogUtility([0.4, 0.1], [1.0, 1.0]), 1.0, 0.1),
                ScaledUtility(SaturatingUtility([0.1, 0.1], [1.0, 1.0]), 1.0, 0.8),
            ],
            capacities=np.array([10.0, 10.0]),
            resource_names=["cache", "power"],
            player_names=["hungry", "content"],
            quanta=np.array([0.25, 0.25]),
        )

    def test_low_potential_players_get_less(self, offset_problem):
        result = BalancedBudget().allocate(offset_problem)
        # The content player starts at 0.8 of its max: tiny potential.
        assert result.budgets[1] < result.budgets[0]
        assert result.budgets.max() == pytest.approx(100.0)

    def test_mbr_below_one(self, offset_problem):
        result = BalancedBudget().allocate(offset_problem)
        assert result.mbr < 1.0

    def test_equal_potentials_degenerate_to_equal_budgets(self, synthetic_problem):
        # With U_min = 0 for everyone, potential is 1 for everyone and
        # Balanced collapses to EqualBudget (the paper's observation 1).
        result = BalancedBudget().allocate(synthetic_problem)
        np.testing.assert_allclose(result.budgets, 100.0)


class TestReBudgetMechanism:
    def test_names(self):
        assert ReBudgetMechanism(step=20).name == "ReBudget-20"
        assert ReBudgetMechanism(min_envy_freeness=0.5).name == "ReBudget(EF>=0.5)"

    def test_details_contain_rounds(self, synthetic_problem):
        result = ReBudgetMechanism(step=30).allocate(synthetic_problem)
        rebudget = result.details["rebudget"]
        assert len(rebudget.rounds) >= 1
        assert result.mbr <= 1.0

    def test_ef_target_guarantee(self, synthetic_problem):
        result = ReBudgetMechanism(min_envy_freeness=0.6).allocate(synthetic_problem)
        from repro.core.theory import ef_lower_bound

        assert result.envy_freeness >= ef_lower_bound(result.mbr) - 1e-9
        assert ef_lower_bound(result.mbr) >= 0.6 - 1e-9


class TestMaxEfficiency:
    def test_is_upper_bound_among_mechanisms(self, synthetic_problem):
        opt = MaxEfficiency().allocate(synthetic_problem)
        for mech in (EqualShare(), EqualBudget(), ReBudgetMechanism(step=30)):
            assert opt.efficiency >= mech.allocate(synthetic_problem).efficiency - 1e-6


class TestElasticitiesProportional:
    def test_recovers_cobb_douglas_elasticities(self):
        problem = AllocationProblem(
            utilities=[
                CobbDouglasUtility([0.8, 0.1]),
                CobbDouglasUtility([0.1, 0.8]),
            ],
            capacities=np.array([10.0, 10.0]),
            resource_names=["cache", "power"],
            player_names=["a", "b"],
        )
        result = ElasticitiesProportional().allocate(problem)
        fitted = result.details["elasticities"]
        np.testing.assert_allclose(fitted[0], [0.8, 0.1], atol=0.05)
        np.testing.assert_allclose(fitted[1], [0.1, 0.8], atol=0.05)
        # Resource split is elasticity-proportional.
        assert result.allocations[0, 0] == pytest.approx(10.0 * 0.8 / 0.9, rel=0.05)

    def test_misallocates_on_cliffy_utilities(self, bbpc_problem):
        # The paper's critique: EP underperforms the market when the
        # utilities are not Cobb-Douglas shaped.
        ep = ElasticitiesProportional().allocate(bbpc_problem)
        market = EqualBudget().allocate(bbpc_problem)
        assert ep.efficiency <= market.efficiency + 1e-6


class TestStandardSuite:
    def test_lineup(self):
        names = [m.name for m in standard_mechanism_suite()]
        assert names == [
            "EqualShare",
            "EqualBudget",
            "Balanced",
            "ReBudget-20",
            "ReBudget-40",
            "MaxEfficiency",
        ]

    def test_zero_capacity_resource(self):
        # The mechanisms without a market hand out nothing of a resource
        # with no capacity; the market mechanisms refuse to price it and
        # name it.
        problem = AllocationProblem(
            utilities=[LogUtility([1.0, 1.0]), LogUtility([2.0, 0.5])],
            capacities=np.array([4.0, 0.0]),
            resource_names=["c", "p"],
            player_names=["a", "b"],
        )
        refused = []
        for mechanism in standard_mechanism_suite() + [ElasticitiesProportional()]:
            if mechanism.name in ("EqualShare", "EP", "MaxEfficiency"):
                result = mechanism.allocate(problem)
                assert np.all(result.allocations[:, 1] == 0.0)
                assert result.allocations[:, 0].sum() == pytest.approx(4.0)
            else:
                with pytest.raises(MarketConfigurationError, match="resource 'p'"):
                    mechanism.allocate(problem)
                refused.append(mechanism.name)
        assert refused == ["EqualBudget", "Balanced", "ReBudget-20", "ReBudget-40"]
