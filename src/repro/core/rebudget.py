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

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..exceptions import MarketConfigurationError
from ..qa import sanitize as _sanitize
from .equilibrium import EquilibriumResult, WarmStart, find_equilibrium
from .market import Market
from .metrics import market_budget_range, market_utility_range
from .theory import ef_lower_bound, min_mbr_for_envy_freeness

__all__ = [
    "ReBudgetConfig",
    "ReBudgetRound",
    "ReBudgetResult",
    "ReBudgetLoop",
    "run_rebudget",
]

#: The loop stops once ``step`` falls below this fraction of the initial
#: budget (the paper's 1%).
_STEP_STOP_FRACTION = 0.01
#: Fail-safe on outer rounds; the default back-off ends the loop in a few.
_MAX_ROUNDS = 32


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
    backoff: float = 0.5

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
            # NaN fails every comparison, so the range is spelled to
            # reject it along with inf.
            if not 0.0 < self.step < math.inf:
                raise MarketConfigurationError(
                    f"step must be positive and finite, got {self.step}"
                )
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


class ReBudgetLoop:
    """One ReBudget loop on ``market``, advanced one equilibrium at a time.

    The loop's state between rounds is its step, budget floor, back-off
    and stop rule, the market's budgets and the rounds so far
    (:attr:`result`).  :attr:`warm_start` seeds the next round's search;
    :meth:`advance` takes that round's equilibrium, records it and makes
    its cuts; :attr:`done` says the loop has stopped.
    :func:`run_rebudget` drives one loop through
    :func:`~repro.core.equilibrium.find_equilibrium`;
    :class:`~repro.core.mechanisms.ReBudgetMechanism`'s plan drives one
    through :func:`~repro.core.mechanisms.allocate_all`, which answers
    round ``r`` of every loop in a line-up with one stacked search.  The
    arguments are :func:`run_rebudget`'s.
    """

    def __init__(
        self,
        market: Market,
        config: Optional[ReBudgetConfig] = None,
        warm_start: Optional[WarmStart] = None,
    ):
        config = config or ReBudgetConfig()
        self.market = market
        self.config = config
        self.step, self.floor = config.resolve()
        self.min_step = _STEP_STOP_FRACTION * config.initial_budget
        market.budgets = np.full(market.num_players, config.initial_budget)
        self.result = ReBudgetResult()
        self.warm_start: Optional[WarmStart] = warm_start
        self.done = False
        self._step_exhausted = False

    def advance(self, equilibrium: EquilibriumResult) -> None:
        """Record the next round's ``equilibrium`` and make its cuts."""
        config, market = self.config, self.market
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
        if not self._step_exhausted:
            threshold = config.lambda_threshold * float(lambdas.max(initial=0.0))
            cut = (lambdas < threshold) & (budgets > self.floor + 1e-12)
            cut_players = np.flatnonzero(cut).tolist()
            market.budgets = np.where(
                cut, np.maximum(budgets - self.step, self.floor), budgets
            )

        if _sanitize.ACTIVE:
            _sanitize.check_budget_floor(market.budgets, self.floor, config.initial_budget)

        self.result.rounds.append(
            ReBudgetRound(
                round_index=len(self.result.rounds),
                step=self.step,
                budgets=budgets,
                lambdas=lambdas,
                mur=market_utility_range(lambdas),
                mbr=market_budget_range(budgets),
                efficiency=equilibrium.efficiency,
                cut_players=cut_players,
                equilibrium=equilibrium,
            )
        )

        if (
            self._step_exhausted
            or not cut_players
            or len(self.result.rounds) >= _MAX_ROUNDS
        ):
            self.done = True
            return

        # Step (4): exponential back-off.  When the next step would be
        # below the stop threshold we still re-converge once so that the
        # final equilibrium reflects the last round's cuts.
        self.step *= config.backoff
        if self.step < self.min_step:
            self._step_exhausted = True

        # Warm-start the next equilibrium from this round's end-state;
        # the search rescales the bids to the post-cut budgets, which
        # keeps re-convergence fast.
        self.warm_start = equilibrium.warm_start


def run_rebudget(
    market: Market,
    config: Optional[ReBudgetConfig] = None,
    warm_start: Optional[WarmStart] = None,
) -> ReBudgetResult:
    """Execute the ReBudget loop on ``market``.

    ``market.budgets`` is reassigned: it starts at
    ``config.initial_budget`` for everyone and ends at the reassigned
    values.  Each round's cuts assign a new array, so a round's
    ``budgets`` keep the values its equilibrium was solved at.  The
    result records every intermediate round so the efficiency/fairness
    trajectory can be inspected.

    ``warm_start`` seeds the *first* round's equilibrium search — in the
    epoch simulator this is the previous epoch's equal-budget
    equilibrium.  Every subsequent round is seeded from the previous
    round's equilibrium, rescaled to the post-cut budgets.

    Every round is a :func:`find_equilibrium` call of its own: this
    never reads a problem's shared cold solve, which only
    :func:`~repro.core.mechanisms.allocate_all` fills and the
    mechanisms read.
    """
    loop = ReBudgetLoop(market, config, warm_start)
    while not loop.done:
        loop.advance(find_equilibrium(market, warm_start=loop.warm_start))
    return loop.result

