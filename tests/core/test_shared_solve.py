"""One cold equal-budget solve per problem, shared by the mechanisms.

``AllocationProblem.equal_budget_equilibrium`` is EqualBudget's cold
result and the round 0 of every cold ReBudget loop on the problem; the
mechanism driver (``allocate_all``, which every market mechanism's
``allocate`` runs) fills it the first time a plan asks.  The
equilibrium depends only on budgets and utilities and the climb is
deterministic, so sharing it must change no output bit; these tests pin
that, who reads the shared solve, and who still solves for itself.
"""

import dataclasses
import importlib
from functools import lru_cache

import numpy as np
import pytest

from repro.cmp import ChipModel, cmp_8core, cmp_64core
from repro.core import (
    AllocationProblem,
    BalancedBudget,
    EqualBudget,
    ExactBidder,
    PriceTakingBidder,
    ReBudgetConfig,
    ReBudgetMechanism,
    find_equilibrium,
    run_rebudget,
    standard_mechanism_suite,
)
from repro.core.mechanisms import DEFAULT_BUDGET
from repro.utility import LogUtility, SaturatingUtility
from repro.workloads import BUNDLE_CATEGORIES, generate_bundles

#: The six 8-core ``<category>-00`` reference problems and 64-core CPBN-00.
CASES = [(8, category) for category in BUNDLE_CATEGORIES] + [(64, "CPBN")]
STEPS = (20.0, 40.0)


@lru_cache(maxsize=None)
def _built(cores: int, category: str) -> AllocationProblem:
    config = cmp_8core() if cores == 8 else cmp_64core()
    bundle = generate_bundles(category, cores, count=1, seed=2016)[0]
    return ChipModel(config, bundle.apps).build_problem()


def _fresh(cores: int, category: str) -> AllocationProblem:
    """The case's problem, holding no shared solve (nor evaluator) yet."""
    return dataclasses.replace(_built(cores, category))


def _synthetic() -> AllocationProblem:
    """Three small players, cheap enough for the exact bidder."""
    return AllocationProblem(
        utilities=[
            LogUtility([2.0, 0.5], [1.0, 1.0]),
            LogUtility([0.5, 2.0], [1.0, 1.0]),
            SaturatingUtility([0.3, 0.3], [1.0, 1.0]),
        ],
        capacities=np.array([10.0, 10.0]),
        resource_names=["cache", "power"],
        player_names=["a", "b", "c"],
    )


def _equal_market(problem: AllocationProblem):
    return problem.build_market([DEFAULT_BUDGET] * problem.num_players)


def _shared(problem: AllocationProblem):
    """The problem's shared solve, filled by a cold EqualBudget first."""
    EqualBudget().allocate(problem)
    return problem.equal_budget_equilibrium


def _arrays(equilibrium):
    """Every array an equilibrium result holds, in a fixed order."""
    state, warm = equilibrium.state, equilibrium.warm_start
    return [
        state.bids, state.prices, state.allocations,
        equilibrium.utilities, equilibrium.lambdas, *equilibrium.price_history,
        warm.bids, warm.budgets, warm.last_moves, warm.anchor_prices,
    ]


def _assert_same_equilibrium(ours, theirs):
    assert ours.iterations == theirs.iterations
    assert ours.converged == theirs.converged
    assert ours.warm_started == theirs.warm_started
    assert len(ours.price_history) == len(theirs.price_history)
    for a, b in zip(_arrays(ours), _arrays(theirs)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _spy(monkeypatch):
    """Record the ``warm_start`` of every search a mechanism starts."""
    calls = []

    def counting(market, *args, **kwargs):
        calls.append(kwargs.get("warm_start"))
        return find_equilibrium(market, *args, **kwargs)

    for module in ("repro.core.mechanisms", "repro.core.rebudget"):
        monkeypatch.setattr(importlib.import_module(module), "find_equilibrium", counting)
    return calls


@pytest.mark.parametrize("cores,category", CASES)
def test_cold_equal_budget_is_a_plain_solve(cores, category):
    problem = _fresh(cores, category)
    assert problem.equal_budget_equilibrium is None
    plain = find_equilibrium(_equal_market(problem))
    result = EqualBudget().allocate(problem)
    shared = problem.equal_budget_equilibrium
    _assert_same_equilibrium(shared, plain)
    assert result.lambdas is shared.lambdas
    assert result.iterations == plain.iterations
    assert result.budgets.tobytes() == plain.warm_start.budgets.tobytes()
    assert result.details["prices"].tobytes() == plain.state.prices.tobytes()


@pytest.mark.parametrize("cores,category", CASES)
def test_rebudget_round0_is_the_shared_solve(cores, category):
    """Each ReBudget's round 0 is the shared solve, and every round
    equals a loop that solves its own round 0."""
    problem = _fresh(cores, category)
    for step in STEPS:
        rounds = ReBudgetMechanism(step=step).allocate(problem).details["rebudget"].rounds
        assert rounds[0].equilibrium is problem.equal_budget_equilibrium
        direct = run_rebudget(
            _equal_market(problem), ReBudgetConfig(initial_budget=DEFAULT_BUDGET, step=step)
        ).rounds
        assert len(rounds) == len(direct)
        for ours, theirs in zip(rounds, direct):
            assert ours.budgets.tobytes() == theirs.budgets.tobytes()
            assert ours.cut_players == theirs.cut_players
            assert ours.step == theirs.step
            _assert_same_equilibrium(ours.equilibrium, theirs.equilibrium)


def test_suite_solves_two_fewer_equilibria(monkeypatch):
    """EqualBudget and both ReBudget loops share one search: the suite
    runs two fewer than one per EqualBudget, Balanced and ReBudget round."""
    problem = _fresh(8, "CPBN")
    calls = _spy(monkeypatch)
    results = {m.name: m.allocate(problem) for m in standard_mechanism_suite()}
    rounds = sum(
        len(results[name].details["rebudget"].rounds)
        for name in ("ReBudget-20", "ReBudget-40")
    )
    assert len(calls) == (2 + rounds) - 2


def test_direct_calls_still_solve(monkeypatch):
    problem = _fresh(8, "CPBN")
    shared = _shared(problem)
    eq = find_equilibrium(_equal_market(problem))
    assert eq is not shared and eq.eval_counts["total_calls"] > 0
    assert eq.state.allocations.flags.writeable
    _assert_same_equilibrium(eq, shared)

    calls = _spy(monkeypatch)
    rebudget = run_rebudget(_equal_market(problem), ReBudgetConfig(step=40.0))
    assert len(calls) == len(rebudget.rounds)
    assert rebudget.rounds[0].equilibrium is not shared


@pytest.mark.parametrize(
    "make",
    [
        lambda: EqualBudget(bidder=PriceTakingBidder()),
        lambda: EqualBudget(bidder=ExactBidder()),
        BalancedBudget,
    ],
    ids=["price-taking", "exact", "balanced"],
)
def test_other_markets_solve_for_themselves(monkeypatch, make):
    problem = _synthetic()
    shared = _shared(problem)
    calls = _spy(monkeypatch)
    result = make().allocate(problem)
    assert calls == [None]
    assert result.lambdas is not shared.lambdas


@pytest.mark.parametrize(
    "make", [EqualBudget, lambda: ReBudgetMechanism(step=40.0)], ids=["equal", "rebudget"]
)
def test_warm_calls_solve_for_themselves(monkeypatch, make):
    problem = _fresh(8, "BBPN")
    mechanism = make()
    mechanism.allocate(problem)
    seed = mechanism.warm_state
    assert seed is problem.equal_budget_equilibrium.warm_start
    calls = _spy(monkeypatch)
    result = mechanism.allocate(problem)
    assert calls[0] is seed
    rebudget = result.details.get("rebudget")
    assert len(calls) == (1 if rebudget is None else len(rebudget.rounds))


def test_shared_arrays_are_read_only():
    problem = _synthetic()
    shared = _shared(problem)
    assert all(array is not None for array in _arrays(shared))
    assert not any(array.flags.writeable for array in _arrays(shared))
    result = EqualBudget().allocate(problem)
    with pytest.raises(ValueError):
        result.allocations[0, 0] = 0.0
    with pytest.raises(ValueError):
        result.lambdas[0] = 0.0
    # The shared solve is left as it was.
    assert problem.equal_budget_equilibrium is shared



def test_rebudget_at_another_initial_budget_solves_its_own_round0():
    problem = _synthetic()
    mechanism = ReBudgetMechanism(step=20.0)
    mechanism.config.initial_budget = 50.0
    rounds = mechanism.allocate(problem).details["rebudget"].rounds
    assert problem.equal_budget_equilibrium is None
    direct = run_rebudget(
        problem.build_market([50.0] * problem.num_players),
        ReBudgetConfig(initial_budget=50.0, step=20.0),
    ).rounds
    assert len(rounds) == len(direct)
    for ours, theirs in zip(rounds, direct):
        _assert_same_equilibrium(ours.equilibrium, theirs.equilibrium)
