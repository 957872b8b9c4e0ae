"""``allocate_all``: a line-up on one problem, its markets stacked.

Each mechanism's result and the ``warm_state`` it is left with must be
bitwise those of its own ``allocate`` on a fresh problem; mechanisms
without a plan must run their own ``allocate``; a failure fails only
the mechanisms it belongs to.
"""

import dataclasses
from functools import lru_cache

import pytest

from repro.cmp import ChipModel, cmp_8core, cmp_64core
from repro.core import (
    AllocationProblem,
    BalancedBudget,
    ElasticitiesProportional,
    EqualBudget,
    EqualShare,
    MaxEfficiency,
    PriceTakingBidder,
    ReBudgetLoop,
    ReBudgetMechanism,
    allocate_all,
    standard_mechanism_suite,
)
from repro.core import mechanisms as mechanisms_module
from repro.exceptions import MarketConfigurationError
from repro.utility import ScaledUtility
from repro.workloads import generate_bundles


@lru_cache(maxsize=None)
def _built(cores: int, category: str) -> AllocationProblem:
    config = cmp_8core() if cores == 8 else cmp_64core()
    bundle = generate_bundles(category, cores, count=1, seed=2016)[0]
    return ChipModel(config, bundle.apps).build_problem()


def _fresh(cores: int, category: str) -> AllocationProblem:
    return dataclasses.replace(_built(cores, category))


class _Subclassed(EqualBudget):
    """An EqualBudget subclass: it inherits the plan, so it stacks too."""

    name = "Subclassed"


def _lineup():
    """Every plan kind, cold and warm, and every planless kind."""
    warm = EqualBudget()
    warm.allocate(_fresh(8, "BBPN"))
    warm.name = "WarmEqualBudget"
    return standard_mechanism_suite() + [
        ReBudgetMechanism(min_envy_freeness=0.6),
        BalancedBudget(bidder=PriceTakingBidder()),
        ElasticitiesProportional(),
        _Subclassed(),
        warm,
    ]


#: Line-up positions of the market mechanisms, which run as plans: the
#: cold and warm default-bidder markets stack, and the price-taking
#: Balanced's search runs alone.
PLANNED = {1, 2, 3, 4, 6, 7, 9, 10}


def _key(result):
    """Every output of a mechanism result, as bytes where it is an array."""
    out = [result.mechanism, result.allocations.tobytes(), result.utilities.tobytes(),
           result.efficiency, result.envy_freeness, result.iterations, result.converged,
           result.mur, result.mbr]
    for array in (result.budgets, result.lambdas, result.details.get("prices")):
        out.append(None if array is None else array.tobytes())
    rebudget = result.details.get("rebudget")
    for r in rebudget.rounds if rebudget else ():
        eq = r.equilibrium
        out += [r.step, r.cut_players, r.budgets.tobytes(), r.lambdas.tobytes(),
                eq.state.bids.tobytes(), eq.iterations, eq.converged, eq.warm_started]
    return out


def _warm_key(mechanism):
    warm = mechanism.warm_state
    if warm is None:
        return None
    return [warm.bids.tobytes(), warm.budgets.tobytes(),
            None if warm.last_moves is None else warm.last_moves.tobytes(),
            warm.anchor_prices.tobytes()]


@pytest.mark.parametrize("cores,category", [(8, "CPBN"), (8, "BBCN"), (64, "BBPN")])
def test_equals_each_mechanism_alone(cores, category, monkeypatch):
    alone = _lineup()
    expected = [mechanism.allocate(_fresh(cores, category)) for mechanism in alone]
    stacked = _lineup()

    called = []
    for cls in (EqualShare, EqualBudget, BalancedBudget, ReBudgetMechanism,
                MaxEfficiency, ElasticitiesProportional):
        def spy(self, problem, _original=cls.__dict__["allocate"]):
            called.append(self)
            return _original(self, problem)
        monkeypatch.setattr(cls, "allocate", spy)

    outcomes = list(allocate_all(_fresh(cores, category), stacked))
    assert sorted(k for k, _ in outcomes) == list(range(len(stacked)))
    got = dict(outcomes)
    for k, mechanism in enumerate(stacked):
        assert _key(got[k]) == _key(expected[k]), mechanism.name
        assert _warm_key(mechanism) == _warm_key(alone[k]), mechanism.name
    # Only the planless mechanisms ran their own allocate, once each.
    assert sorted(stacked.index(m) for m in called) == [
        k for k in range(len(stacked)) if k not in PLANNED
    ]


def test_fills_the_shared_solve_once():
    problem = _fresh(8, "CPBN")
    outcomes = dict(allocate_all(problem, standard_mechanism_suite()))
    shared = problem.equal_budget_equilibrium
    assert not shared.lambdas.flags.writeable
    assert outcomes[1].lambdas is shared.lambdas
    assert outcomes[3].details["rebudget"].rounds[0].equilibrium is shared


class _Boom(RuntimeError):
    pass


def test_a_failing_stacked_search_fails_the_mechanisms_it_serves(monkeypatch):
    def explode(markets, warm_starts):
        raise _Boom("stacked search failed")

    monkeypatch.setattr(mechanisms_module, "find_equilibria", explode)
    outcomes = dict(allocate_all(_fresh(8, "CPBN"), standard_mechanism_suite()))
    names = [m.name for m in standard_mechanism_suite()]
    failed = {names[k] for k, outcome in outcomes.items() if isinstance(outcome, Exception)}
    assert failed == {"EqualBudget", "Balanced", "ReBudget-20", "ReBudget-40"}
    assert all(isinstance(outcomes[k], _Boom) for k in range(1, 5))


def test_a_failing_loop_round_fails_only_the_loops(monkeypatch):
    real = mechanisms_module.find_equilibria
    calls = []

    def second_call_explodes(markets, warm_starts):
        calls.append(len(markets))
        if len(calls) == 2:
            raise _Boom("round 1 failed")
        return real(markets, warm_starts)

    monkeypatch.setattr(mechanisms_module, "find_equilibria", second_call_explodes)
    outcomes = dict(allocate_all(_fresh(8, "CPBN"), standard_mechanism_suite()))
    names = [m.name for m in standard_mechanism_suite()]
    failed = {names[k] for k, outcome in outcomes.items() if isinstance(outcome, Exception)}
    # Stack 1 (the shared solve and Balanced) held two markets, round 1
    # of the two loops the second stack.
    assert calls[:2] == [2, 2]
    assert failed == {"ReBudget-20", "ReBudget-40"}


def _market_lineup():
    """Every market mechanism kind of the standard line-up, plus an EF target."""
    return [
        EqualBudget(),
        BalancedBudget(),
        ReBudgetMechanism(step=20.0),
        ReBudgetMechanism(step=40.0),
        ReBudgetMechanism(min_envy_freeness=0.6),
    ]


def _perturbed(problem: AllocationProblem) -> AllocationProblem:
    """``problem``'s players and resources under slightly rescaled utilities."""
    utilities = [
        ScaledUtility(utility, 1.0 + 0.04 * (i % 3 - 1))
        for i, utility in enumerate(problem.utilities)
    ]
    return dataclasses.replace(problem, utilities=utilities)


def _count_searches(monkeypatch):
    """Record the number of markets in every search the driver runs."""
    sizes = []
    stacked, solo = mechanisms_module.find_equilibria, mechanisms_module.find_equilibrium

    def counting_stack(markets, warm_starts):
        sizes.append(len(markets))
        return stacked(markets, warm_starts)

    def counting_solo(market, **kwargs):
        sizes.append(1)
        return solo(market, **kwargs)

    monkeypatch.setattr(mechanisms_module, "find_equilibria", counting_stack)
    monkeypatch.setattr(mechanisms_module, "find_equilibrium", counting_solo)
    return sizes


@pytest.mark.parametrize("category", ["CPBN", "BBPN"])
def test_warm_lineups_stack_bitwise(category, monkeypatch):
    first = _fresh(8, category)
    alone, stacked = _market_lineup(), _market_lineup()
    for mechanism in alone + stacked:
        mechanism.allocate(first)
    expected = [mechanism.allocate(_perturbed(first)) for mechanism in alone]

    sizes = _count_searches(monkeypatch)
    got = dict(allocate_all(_perturbed(first), stacked))
    for k, mechanism in enumerate(stacked):
        assert _key(got[k]) == _key(expected[k]), mechanism.name
        assert _warm_key(mechanism) == _warm_key(alone[k]), mechanism.name
    # Every warm market searches in step 0 together; step s then stacks
    # round s of every loop still running.
    assert all(got[k].details["rebudget"].rounds[0].equilibrium.warm_started for k in (2, 3, 4))
    searches = [1, 1] + [len(got[k].details["rebudget"].rounds) for k in (2, 3, 4)]
    assert sizes == [
        sum(1 for count in searches if count > step) for step in range(max(searches))
    ]
    assert sizes[0] == len(stacked)


class TestFailuresStayIsolated:
    def _outcomes(self, lineup):
        return dict(allocate_all(_fresh(8, "CPBN"), lineup))

    def _assert_others_unchanged(self, outcomes, failed):
        expected = [m.allocate(_fresh(8, "CPBN")) for m in standard_mechanism_suite()]
        for k, outcome in outcomes.items():
            if k != failed:
                assert _key(outcome) == _key(expected[k]), k

    def test_a_failing_balanced_budget_rule_fails_balanced_alone(self):
        lineup = standard_mechanism_suite()

        def explode(problem):
            raise _Boom("no budgets")

        lineup[2]._budgets = explode
        outcomes = self._outcomes(lineup)
        assert isinstance(outcomes[2], _Boom)
        self._assert_others_unchanged(outcomes, failed=2)

    def test_a_loop_failing_mid_loop_fails_alone(self, monkeypatch):
        lineup = standard_mechanism_suite()
        failing = lineup[3].config
        advance = ReBudgetLoop.advance

        def explode_in_round_1(loop, equilibrium):
            if loop.config is failing and loop.result.rounds:
                raise _Boom("round 1 of ReBudget-20")
            advance(loop, equilibrium)

        monkeypatch.setattr(ReBudgetLoop, "advance", explode_in_round_1)
        outcomes = self._outcomes(lineup)
        assert isinstance(outcomes[3], _Boom)
        monkeypatch.setattr(ReBudgetLoop, "advance", advance)
        self._assert_others_unchanged(outcomes, failed=3)

    def test_a_bad_configuration_fails_alone_and_raises_solo(self):
        bad = ReBudgetMechanism(step=-1.0)
        outcomes = self._outcomes(standard_mechanism_suite() + [bad])
        assert isinstance(outcomes[6], MarketConfigurationError)
        self._assert_others_unchanged({k: outcomes[k] for k in range(6)}, failed=None)
        with pytest.raises(MarketConfigurationError, match="step"):
            bad.allocate(_fresh(8, "CPBN"))
