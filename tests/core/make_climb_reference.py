"""Frozen equilibrium outputs of the Section 4.1.2 hill climb.

Writes ``fixtures/climb_reference.json`` next to this file: bids,
prices, lambdas, iteration counts and convergence flags of a fixed set
of solves, every float stored bitwise as ``float.hex``.
``test_climb_reference.py`` re-runs :func:`run_cases` and asserts the
current code reproduces every recorded value exactly.

Inputs are the paper's bbpc bundle plus one CCCC, PPPP, BBNN and CPBN
bundle (seed ``2016 + i``) on the 8-core chip, every budget 100.  Each
problem is solved by the default bidder (Jacobi cold, warm from that
cold solve, Gauss-Seidel cold), by :class:`PriceTakingBidder` (Jacobi
cold) and by ReBudget at steps 20 and 40; one :class:`ExactBidder` solve
on a three-player log-utility market completes the set.  Utility
evaluation tallies (``eval_counts``) are recorded for the default-bidder
Jacobi solves only.

Regenerate (only when a change to the numbers is intended)::

    PYTHONPATH=src python tests/core/make_climb_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.cmp import ChipModel, cmp_8core
from repro.core import (
    ExactBidder,
    Market,
    Player,
    PriceTakingBidder,
    ReBudgetConfig,
    Resource,
    ResourceSet,
    find_equilibrium,
    run_rebudget,
)
from repro.utility import LogUtility
from repro.workloads import generate_bundles, paper_bbpc_bundle

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "climb_reference.json"

#: Fig-4 categories solved beside the bbpc bundle (letters: Cache-,
#: Power-sensitive, Both, Neither).
CATEGORIES = ("CCCC", "PPPP", "BBNN", "CPBN")
SEED = 2016
BUDGET = 100.0


def _hex(values) -> List:
    """Nested lists of ``float.hex`` strings (bitwise float encoding)."""
    array = np.asarray(values, dtype=float)
    if array.ndim == 0:
        return float(array).hex()
    return [_hex(row) for row in array]


def _equilibrium(result, counts: bool) -> Dict:
    record = {
        "bids": _hex(result.state.bids),
        "prices": _hex(result.state.prices),
        "lambdas": _hex(result.lambdas),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }
    if counts:
        record["eval_counts"] = dict(result.eval_counts)
    return record


def _rebudget(market: Market, step: float) -> Dict:
    result = run_rebudget(market, config=ReBudgetConfig(step=step))
    return {
        "final_budgets": _hex(result.final_budgets),
        "rounds": [_equilibrium(r.equilibrium, counts=True) for r in result.rounds],
    }


def problems() -> List[Tuple[str, object]]:
    """``(name, AllocationProblem)`` for bbpc and each Fig-4 category."""
    config = cmp_8core()
    bundles = [("bbpc", paper_bbpc_bundle())]
    for index, category in enumerate(CATEGORIES):
        bundles.append(
            (category, generate_bundles(category, config.num_cores, count=1, seed=SEED + index)[0])
        )
    return [(name, ChipModel(config, b.apps).build_problem()) for name, b in bundles]


def small_market() -> Market:
    """Three log-utility players over cache/power, budget 100 each."""
    resources = ResourceSet.of(Resource("cache", 10.0), Resource("power", 5.0))
    players = [
        Player("a", LogUtility([1.0, 0.2], [1.0, 1.0]), BUDGET),
        Player("b", LogUtility([0.2, 1.0], [1.0, 1.0]), BUDGET),
        Player("c", LogUtility([0.6, 0.6], [1.0, 1.0]), BUDGET),
    ]
    return Market(resources, players)


def case_runners() -> Dict[str, Callable[[], Dict]]:
    """Every recorded case by name, each a fresh-market solve."""
    runners: Dict[str, Callable[[], Dict]] = {}
    for name, problem in problems():
        def market(problem=problem) -> Market:
            return problem.build_market(np.full(problem.num_players, BUDGET))

        def jacobi_warm(market=market) -> Dict:
            m = market()
            cold = find_equilibrium(m)
            return _equilibrium(find_equilibrium(m, warm_start=cold.warm_start), counts=True)

        runners[f"{name}/jacobi-cold"] = (
            lambda market=market: _equilibrium(find_equilibrium(market()), counts=True)
        )
        runners[f"{name}/jacobi-warm"] = jacobi_warm
        runners[f"{name}/gauss-seidel-cold"] = lambda market=market: _equilibrium(
            find_equilibrium(market(), update="gauss-seidel"), counts=False
        )
        runners[f"{name}/price-taking-cold"] = lambda market=market: _equilibrium(
            find_equilibrium(market(), bidder=PriceTakingBidder()), counts=False
        )
        for step in (20.0, 40.0):
            runners[f"{name}/rebudget-{step:g}"] = (
                lambda market=market, step=step: _rebudget(market(), step)
            )
    runners["small/exact-cold"] = lambda: _equilibrium(
        find_equilibrium(small_market(), bidder=ExactBidder()), counts=False
    )
    return runners


def run_cases() -> Dict[str, Dict]:
    return {name: run() for name, run in case_runners().items()}


def main() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(run_cases(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
