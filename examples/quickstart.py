"""Quickstart: a market of three players over two resources.

Builds the smallest interesting market, finds its equilibrium with the
paper's hill-climbing bidders, checks the theoretical bounds (Theorems
1 and 2), and runs ReBudget to trade fairness for efficiency.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import (
    AllocationProblem,
    MaxEfficiency,
    ReBudgetConfig,
    ef_lower_bound,
    envy_freeness,
    find_equilibrium,
    market_utility_range,
    poa_lower_bound,
    run_rebudget,
)
from repro.utility import LogUtility, SaturatingUtility


def main() -> None:
    # Three players with different appetites over two divisible
    # resources: 10 units of "cache", 5 units of "power".  The third
    # saturates quickly — it cannot use much, so its marginal utility of
    # money (lambda) will be low and ReBudget will cut its budget.
    problem = AllocationProblem(
        utilities=[
            LogUtility([2.0, 0.3], [1.0, 1.0]),
            LogUtility([0.3, 2.0], [1.0, 1.0]),
            SaturatingUtility([0.2, 0.2], [0.5, 0.5]),
        ],
        capacities=[10.0, 5.0],
        resource_names=["cache", "power"],
        player_names=["cache-hungry", "power-hungry", "content"],
    )
    market = problem.build_market([100.0] * problem.num_players)

    # --- Market equilibrium (the iterative bidding-pricing loop) ------
    eq = find_equilibrium(market)
    print(f"equilibrium in {eq.iterations} pricing rounds (converged={eq.converged})")
    print(f"prices:      {np.round(eq.state.prices, 4)}")
    print(f"allocations:\n{np.round(eq.state.allocations, 3)}")
    print(f"efficiency:  {eq.efficiency:.3f}")

    mur = market_utility_range(eq.lambdas)
    ef = envy_freeness(problem.utilities, eq.state.allocations)
    print(f"MUR = {mur:.3f}  ->  PoA >= {poa_lower_bound(mur):.3f}  (Theorem 1)")
    print(f"MBR = 1.000  ->  EF >= {ef_lower_bound(1.0):.3f}; realized EF = {ef:.3f}")

    # --- ReBudget: cut low-lambda budgets, re-equilibrate --------------
    rebudget = run_rebudget(market, ReBudgetConfig(step=40.0))
    print(f"\nReBudget-40 finished after {len(rebudget.rounds)} rounds")
    print(f"final budgets: {np.round(rebudget.final_budgets, 2)}")
    print(f"efficiency:    {rebudget.efficiency:.3f} (was {eq.efficiency:.3f})")
    print(f"MBR = {rebudget.mbr:.3f} -> guaranteed EF >= {rebudget.guaranteed_envy_freeness:.3f}")

    # --- Reference: the welfare-maximizing allocation ------------------
    opt = MaxEfficiency().allocate(problem)
    print(f"\nMaxEfficiency reference: {opt.efficiency:.3f}")
    print(f"realized eff/OPT: equal-budget {eq.efficiency / opt.efficiency:.3f}, "
          f"ReBudget-40 {rebudget.efficiency / opt.efficiency:.3f}")


if __name__ == "__main__":
    main()
