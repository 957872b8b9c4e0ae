"""ReBudget: runtime budget reassignment (Section 4.2 of the paper).

ReBudget sits on top of the equilibrium finder.  Starting from equal
budgets, it repeatedly (1) lets the market reach equilibrium, (2)
collects every player's marginal utility of money ``lambda_i``, (3)
cuts the budget of every player whose ``lambda_i`` is below half the
market maximum by the current ``step``, and (4) halves ``step``.  The
loop stops when ``step`` falls below 1% of the initial budget or when a
round cuts nobody.

The knob is ``step`` (the paper evaluates ReBudget-20 and ReBudget-40
with an initial budget of 100).  Alternatively, the administrator can
set a minimum acceptable envy-freeness: Theorem 2 is inverted to an MBR
floor, budgets are never cut below ``MBR * B``, and the initial step is
``(1 - MBR) * B / 2`` — so the budget spread, and hence the fairness
guarantee, is maintained by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..exceptions import MarketConfigurationError
from ..qa import sanitize as _sanitize
from .bidding import BiddingStrategy, HillClimbBidder
from .equilibrium import MAX_ITERATIONS, EquilibriumResult, WarmStart, find_equilibrium
from .market import Market
from .metrics import market_budget_range, market_utility_range
from .theory import ef_lower_bound, min_mbr_for_envy_freeness

__all__ = ["ReBudgetConfig", "ReBudgetRound", "ReBudgetResult", "run_rebudget"]


@dataclass
class ReBudgetConfig:
    """Tuning knobs of the ReBudget loop.

    Exactly one of ``step`` and ``min_envy_freeness`` should normally be
    set; when both are set the explicit ``step`` wins but the MBR floor
    derived from the fairness target is still enforced.  With only
    ``min_envy_freeness`` set, ``step`` defaults to
    ``(1 - MBR) * B / 2`` (the paper's initialization).
    """

    initial_budget: float = 100.0
    step: Optional[float] = None
    min_envy_freeness: Optional[float] = None
    lambda_threshold: float = 0.5
    step_stop_fraction: float = 0.01
    backoff: float = 0.5
    max_rounds: int = 32
    equilibrium_max_iterations: int = MAX_ITERATIONS

    def resolve(self) -> tuple:
        """Return ``(initial_step, budget_floor)`` for this configuration."""
        if self.initial_budget <= 0:
            raise MarketConfigurationError("initial budget must be positive")
        if not 0.0 < self.lambda_threshold < 1.0:
            raise MarketConfigurationError("lambda threshold must lie in (0, 1)")
        if not 0.0 < self.backoff < 1.0:
            raise MarketConfigurationError("backoff must lie in (0, 1)")

        floor = 0.0
        if self.min_envy_freeness is not None:
            mbr = min_mbr_for_envy_freeness(self.min_envy_freeness)
            floor = mbr * self.initial_budget

        if self.step is not None:
            if self.step <= 0:
                raise MarketConfigurationError("step must be positive")
            step = float(self.step)
        elif self.min_envy_freeness is not None:
            mbr = min_mbr_for_envy_freeness(self.min_envy_freeness)
            step = (1.0 - mbr) * self.initial_budget / 2.0
        else:
            raise MarketConfigurationError(
                "set either step (e.g. ReBudget-20) or min_envy_freeness"
            )
        return step, floor


@dataclass
class ReBudgetRound:
    """One outer iteration: an equilibrium plus the cuts it triggered."""

    round_index: int
    step: float
    budgets: np.ndarray
    lambdas: np.ndarray
    mur: float
    mbr: float
    efficiency: float
    cut_players: List[int]
    equilibrium: EquilibriumResult


@dataclass
class ReBudgetResult:
    """Outcome of the full ReBudget loop."""

    rounds: List[ReBudgetRound] = field(default_factory=list)

    @property
    def final(self) -> ReBudgetRound:
        return self.rounds[-1]

    @property
    def final_equilibrium(self) -> EquilibriumResult:
        return self.final.equilibrium

    @property
    def final_budgets(self) -> np.ndarray:
        return self.final.budgets

    @property
    def mur(self) -> float:
        return self.final.mur

    @property
    def mbr(self) -> float:
        return self.final.mbr

    @property
    def efficiency(self) -> float:
        return self.final.efficiency

    @property
    def guaranteed_envy_freeness(self) -> float:
        """Theorem 2 applied to the realized final MBR."""
        return ef_lower_bound(self.mbr)

    @property
    def total_equilibrium_iterations(self) -> int:
        """Pricing rounds summed over all outer iterations (Section 6.4)."""
        return sum(r.equilibrium.iterations for r in self.rounds)


def run_rebudget(
    market: Market,
    config: Optional[ReBudgetConfig] = None,
    bidder: Optional[BiddingStrategy] = None,
    warm_start: Optional[WarmStart] = None,
) -> ReBudgetResult:
    """Execute the ReBudget loop on ``market``.

    Player budgets on ``market`` are overwritten: they start at
    ``config.initial_budget`` for everyone and end at the reassigned
    values.  The result records every intermediate round so the
    efficiency/fairness trajectory can be inspected.

    ``warm_start`` seeds the *first* round's equilibrium search — in the
    epoch simulator this is the previous epoch's equal-budget
    equilibrium.  Every subsequent round is seeded from the previous
    round's equilibrium, rescaled to the post-cut budgets.
    """
    config = config or ReBudgetConfig()
    bidder = bidder or HillClimbBidder()
    step, floor = config.resolve()
    initial_budget = config.initial_budget
    min_step = config.step_stop_fraction * initial_budget

    for player in market.players:
        player.budget = initial_budget

    result = ReBudgetResult()
    round_warm: Optional[WarmStart] = warm_start
    step_exhausted = False
    for round_index in range(config.max_rounds):
        equilibrium = find_equilibrium(
            market,
            bidder=bidder,
            warm_start=round_warm,
            max_iterations=config.equilibrium_max_iterations,
        )
        lambdas = equilibrium.lambdas
        budgets = market.budgets
        cut_players: List[int] = []

        # Step (3): cut the budget of every player whose lambda_i sits
        # below the threshold, but never below the MBR floor.  A player
        # whose full step would cross the floor is cut partially, onto
        # the floor itself — skipping it instead would leave low-lambda
        # players stranded just above the floor and the configured
        # fairness knob (min_envy_freeness -> MBR * B) never reached.
        # Once the step has shrunk below 1% of the initial budget, this
        # round's equilibrium is the final outcome and no more cuts are
        # made.
        if not step_exhausted:
            threshold = config.lambda_threshold * float(lambdas.max(initial=0.0))
            for i, player in enumerate(market.players):
                if lambdas[i] < threshold and player.budget > floor + 1e-12:
                    player.budget = max(player.budget - step, floor)
                    cut_players.append(i)

        if _sanitize.ACTIVE:
            _sanitize.check_budget_floor(market.budgets, floor, initial_budget)

        result.rounds.append(
            ReBudgetRound(
                round_index=round_index,
                step=step,
                budgets=budgets,
                lambdas=lambdas,
                mur=market_utility_range(lambdas),
                mbr=market_budget_range(budgets),
                efficiency=equilibrium.efficiency,
                cut_players=cut_players,
                equilibrium=equilibrium,
            )
        )

        if step_exhausted or not cut_players:
            break

        # Step (4): exponential back-off.  When the next step would be
        # below the stop threshold we still re-converge once so that the
        # final equilibrium reflects the last round's cuts.
        step *= config.backoff
        if step < min_step:
            step_exhausted = True

        # Warm-start the next equilibrium from this round's end-state;
        # find_equilibrium rescales the bids to the post-cut budgets,
        # which keeps re-convergence fast.
        round_warm = equilibrium.warm_start

    return result
