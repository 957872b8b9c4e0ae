"""``allocate_all``: a line-up on one problem, cold markets stacked.

Each mechanism's result and the ``warm_state`` it is left with must be
bitwise those of its own ``allocate`` on a fresh problem; mechanisms
that do not stack must run their own ``allocate``; a failure fails only
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
    ReBudgetMechanism,
    allocate_all,
    standard_mechanism_suite,
)
from repro.core import mechanisms as mechanisms_module
from repro.workloads import generate_bundles


@lru_cache(maxsize=None)
def _built(cores: int, category: str) -> AllocationProblem:
    config = cmp_8core() if cores == 8 else cmp_64core()
    bundle = generate_bundles(category, cores, count=1, seed=2016)[0]
    return ChipModel(config, bundle.apps).build_problem()


def _fresh(cores: int, category: str) -> AllocationProblem:
    return dataclasses.replace(_built(cores, category))


class _Subclassed(EqualBudget):
    """An EqualBudget subclass: it may override anything, so it runs alone."""

    name = "Subclassed"


def _lineup():
    """Every stacking kind, and every kind that must run alone."""
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


#: Line-up positions of the cold default-bidder markets, which stack.
STACKED = {1, 2, 3, 4, 6}


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
    # The stacking mechanisms never ran their own allocate; every other
    # one did, once.
    assert sorted(stacked.index(m) for m in called) == [
        k for k in range(len(stacked)) if k not in STACKED
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
