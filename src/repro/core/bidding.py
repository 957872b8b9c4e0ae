"""Player bidding strategies.

Given the prices announced by the market, every player independently
finds the bid vector that maximizes its own utility subject to its
budget (optimization problem 3 in the paper).

* :class:`HillClimbBidder` — the paper's Section 4.1.2 procedure, run
  for every player of a round at once: start from an equal split (or,
  warm-started, from the previous bid vector), repeatedly move an
  exponentially shrinking amount ``S`` of money from the resource with
  the lowest marginal utility to the one with the highest, stopping when
  marginals agree within 5% or ``S`` drops below 1% of the budget.  The
  marginal the climb reads is its one varying step:

  - *price-anticipating* (the default; Equations 2 and 7): a player
    predicts how its own bid moves its allocation through the shared
    price;
  - *price-taking* (:class:`PriceTakingBidder`): ``r_j = b_j / p_j``
    with the prices held fixed at the previous bids.

* :class:`ExactBidder` — a numerically exact best response found by
  projected gradient ascent with backtracking; used as an ablation
  reference for how much the cheap hill climb loses.

All return bid vectors that (a) are non-negative and (b) spend the full
budget whenever any resource still has positive marginal utility.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence

import numpy as np

from ..utility.base import UtilityFunction
from ..utility.batch import BatchedUtilitySet
from .player import (
    bid_to_allocation,
    marginal_utility_of_bids,
    marginal_utility_of_bids_batch,
)

__all__ = [
    "BiddingStrategy",
    "HillClimbBidder",
    "ExactBidder",
    "PriceTakingBidder",
]

#: ``marginals(rows, bids)``: the ``(K, M)`` marginal utilities of money
#: of players ``rows`` at their bid rows ``bids``.
_MarginalRule = Callable[[np.ndarray, np.ndarray], np.ndarray]


class BiddingStrategy(abc.ABC):
    """Finds a player's (approximately) optimal bids given others' bids."""

    #: Equation 7 marginals ``(N, M)`` the last :meth:`optimize_all` call
    #: evaluated for each row, and an ``(N,)`` flag saying whether they
    #: are *fresh* — evaluated at exactly the returned bids rather than
    #: before a final move.  ``None`` when the strategy exposes none.
    #: Lets ``find_equilibrium`` skip re-deriving ``lambda_i`` when the
    #: climb already paid for it.
    last_marginals: Optional[np.ndarray] = None
    last_fresh: Optional[np.ndarray] = None

    @abc.abstractmethod
    def optimize(
        self,
        utility: UtilityFunction,
        budget: float,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: np.ndarray | None = None,
        step_hint: float | None = None,
    ) -> np.ndarray:
        """Return the player's new bid vector (length M, sums to budget).

        ``current_bids`` is the player's bid vector from the previous
        round (or epoch); strategies that support warm starts begin the
        search there instead of from an equal split.  ``step_hint`` is
        how far the player's bids moved in the previous round — warm
        climbs size their first step to it so a near-converged player
        does not re-explore the whole simplex.
        """

    def optimize_all(
        self,
        utilities: Sequence[UtilityFunction],
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray] = None,
        step_hints: Optional[np.ndarray] = None,
        evaluator: Optional[BatchedUtilitySet] = None,
    ) -> np.ndarray:
        """Best-respond for every player against fixed ``others`` bids.

        Parameters mirror :meth:`optimize` row-wise: ``budgets`` is
        ``(N,)``, ``others`` is ``(N, M)`` (row ``i`` is the sum of the
        *other* players' bids as player ``i`` sees them), and
        ``current_bids`` / ``step_hints`` are the optional ``(N, M)`` /
        ``(N,)`` warm-start state.  ``evaluator`` is a prebuilt
        :class:`~repro.utility.batch.BatchedUtilitySet` over
        ``utilities`` for strategies that evaluate in batches.  Returns
        the new ``(N, M)`` bid matrix; this default calls
        :meth:`optimize` row by row.
        """
        return np.array(
            [
                self.optimize(
                    utility,
                    float(budgets[i]),
                    others[i],
                    capacities,
                    current_bids=None if current_bids is None else current_bids[i],
                    step_hint=None if step_hints is None else float(step_hints[i]),
                )
                for i, utility in enumerate(utilities)
            ]
        )

    @staticmethod
    def warm_start_bids(
        current_bids: np.ndarray | None, budget: float, num_resources: int
    ) -> np.ndarray | None:
        """Validate and normalize a previous bid vector for reuse.

        Returns ``None`` — caller falls back to an equal split — when the
        vector is absent, malformed, all-zero, or was computed for a
        different budget (a budget change means the old split is stale).
        """
        if current_bids is None:
            return None
        bids = np.asarray(current_bids, dtype=float)
        if bids.shape != (num_resources,) or not np.all(np.isfinite(bids)):
            return None
        bids = np.maximum(bids, 0.0)
        total = float(bids.sum())
        if total <= 0.0:
            return None
        if abs(total - budget) > 1e-6 * max(budget, total):
            return None
        return bids * (budget / total)

    @staticmethod
    def player_lambda(
        utility: UtilityFunction,
        bids: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
    ) -> float:
        """The player-specific multiplier ``lambda_i`` at a bid vector.

        At an optimum, all resources with non-zero bids share the same
        marginal utility (Equation 4); we report the maximum marginal
        over resources with non-zero bids, which equals that shared
        value at an optimum and degrades gracefully away from one.
        """
        marginals = marginal_utility_of_bids(utility, bids, others, capacities)
        active = bids > 1e-12
        if not np.any(active):
            return float(marginals.max(initial=0.0))
        return float(marginals[active].max())


class HillClimbBidder(BiddingStrategy):
    """The exponential back-off hill climb of Section 4.1.2.

    Jacobi rounds make players independent within a round (everyone
    best-responds to the same broadcast bids), so :meth:`optimize_all`
    advances every player's climb in lockstep: one ``(K, M)`` batched
    marginal evaluation per iteration serves every still-active player,
    each with its own step size and stop state.  :meth:`optimize` is the
    same climb for a single row.  Subclasses change the marginal the
    climb reads through :meth:`_marginal_rule`.

    Parameters
    ----------
    lambda_tolerance:
        Stop when max and min marginal utilities agree within this
        relative tolerance (paper: 5%).
    step_stop_fraction:
        Stop when the shift amount ``S`` falls below this fraction of the
        player's budget (paper: 1%).
    """

    def __init__(self, lambda_tolerance: float = 0.05, step_stop_fraction: float = 0.01):
        self.lambda_tolerance = lambda_tolerance
        self.step_stop_fraction = step_stop_fraction

    def optimize(
        self,
        utility: UtilityFunction,
        budget: float,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: np.ndarray | None = None,
        step_hint: float | None = None,
    ) -> np.ndarray:
        return self.optimize_all(
            [utility],
            np.array([budget], dtype=float),
            np.asarray(others, dtype=float)[None, :],
            capacities,
            current_bids=None if current_bids is None else np.asarray(current_bids)[None],
            step_hints=None if step_hint is None else np.array([step_hint], dtype=float),
        )[0]

    def _marginal_rule(
        self,
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray],
        evaluator: BatchedUtilitySet,
    ) -> _MarginalRule:
        """The marginal utility of money the climb equalizes: Equation 7."""

        def marginals(rows: np.ndarray, bids: np.ndarray) -> np.ndarray:
            return marginal_utility_of_bids_batch(
                bids, others[rows], capacities, evaluator=evaluator, players=rows
            )

        return marginals

    def optimize_all(
        self,
        utilities: Sequence[UtilityFunction],
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray] = None,
        step_hints: Optional[np.ndarray] = None,
        evaluator: Optional[BatchedUtilitySet] = None,
    ) -> np.ndarray:
        budgets = np.asarray(budgets, dtype=float)
        others = np.asarray(others, dtype=float)
        capacities = np.asarray(capacities, dtype=float)
        num_players = budgets.size
        num_resources = capacities.size
        if evaluator is None:
            evaluator = BatchedUtilitySet(utilities)
        marginals_at = self._marginal_rule(
            budgets, others, capacities, current_bids, evaluator
        )

        bids = np.zeros((num_players, num_resources))
        self.last_marginals = np.zeros((num_players, num_resources))
        self.last_fresh = np.zeros(num_players, dtype=bool)

        if num_resources == 1:
            bids[:, 0] = np.maximum(budgets, 0.0)
            bids[budgets <= 0.0, 0] = 0.0
            return bids

        cold_step = budgets / (2.0 * num_resources)
        min_step = self.step_stop_fraction * budgets
        step = np.zeros(num_players)

        # Step 1: start from the previous bids when they are reusable
        # (same budget), otherwise from an equal split; S is half of one
        # equal-split bid, shrunk to the last move for hinted warm starts
        # whose seed is not stale.
        hinted: list = []
        for i in range(num_players):
            budget = float(budgets[i])
            if budget <= 0.0:
                continue
            warm = self.warm_start_bids(
                None if current_bids is None else current_bids[i],
                budget,
                num_resources,
            )
            if warm is None:
                bids[i] = budget / num_resources
                step[i] = cold_step[i]
            else:
                bids[i] = warm
                if step_hints is None:
                    step[i] = cold_step[i]
                else:
                    hinted.append(i)

        if hinted:
            # Staleness probe: the climb moves at most ~2x its initial
            # step per call, so a hint-sized step cannot recover from a
            # large utility shift.  A marginal imbalance beyond twice the
            # stop tolerance means the seed is stale and the climb needs
            # full mobility from the warm point.
            rows = np.asarray(hinted, dtype=np.intp)
            marginals = marginals_at(rows, bids[rows])
            donors = bids[rows] > 1e-12
            has_donor = donors.any(axis=1)
            hi = marginals.max(axis=1)
            lo = np.where(donors, marginals, np.inf).min(axis=1)
            stale = has_donor & (hi > 0.0) & (hi - lo > 2.0 * self.lambda_tolerance * hi)
            hints = np.asarray(step_hints, dtype=float)[rows]
            step[rows] = np.where(
                stale,
                cold_step[rows],
                np.clip(hints, 2.0 * min_step[rows], cold_step[rows]),
            )

        active = (budgets > 0.0) & (step >= min_step)
        while np.any(active):
            rows = np.flatnonzero(active)
            marginals = marginals_at(rows, bids[rows])
            self.last_marginals[rows] = marginals
            self.last_fresh[rows] = True
            span = np.arange(rows.size)
            donors = bids[rows] > 1e-12
            has_donor = donors.any(axis=1)
            # Donor: lowest marginal among resources the player bids on
            # (np.inf masking keeps the first index among ties);
            # recipient: highest marginal overall.
            donor = np.argmin(np.where(donors, marginals, np.inf), axis=1)
            recipient = np.argmax(marginals, axis=1)
            hi = marginals[span, recipient]
            lo = marginals[span, donor]
            # Stop when marginals already agree within tolerance.
            stop = (
                ~has_donor
                | (recipient == donor)
                | (hi <= 0.0)
                | (hi - lo <= self.lambda_tolerance * hi)
            )
            active[rows[stop]] = False
            move = rows[~stop]
            if move.size:
                d = donor[~stop]
                r = recipient[~stop]
                moved = np.minimum(step[move], bids[move, d])
                bids[move, d] -= moved
                bids[move, r] += moved
                self.last_fresh[move] = False
                # Step 3: exponential back-off.
                step[move] *= 0.5
                active[move] = step[move] >= min_step[move]
        return bids


class ExactBidder(BiddingStrategy):
    """Projected gradient ascent on the budget simplex.

    Maximizes ``U(r(b))`` over ``{b >= 0, sum b = budget}``.  The
    objective is concave whenever ``U`` is concave and non-decreasing
    (each ``r_j(b_j)`` is concave), so gradient ascent with a simplex
    projection converges to the true best response.  Slower but sharper
    than :class:`HillClimbBidder`; used in the bidding ablation.
    """

    def __init__(self, max_iterations: int = 200, tolerance: float = 1e-9):
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    def optimize(
        self,
        utility: UtilityFunction,
        budget: float,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: np.ndarray | None = None,
        step_hint: float | None = None,
    ) -> np.ndarray:
        num_resources = capacities.size
        if budget <= 0.0:
            return np.zeros(num_resources)
        if num_resources == 1:
            return np.array([budget])

        if current_bids is not None and current_bids.sum() > 0:
            bids = current_bids * (budget / current_bids.sum())
        else:
            bids = np.full(num_resources, budget / num_resources)

        def objective(b: np.ndarray) -> float:
            return utility.value(bid_to_allocation(b, others, capacities))

        value = objective(bids)
        step = budget / 4.0
        for _ in range(self.max_iterations):
            grad = marginal_utility_of_bids(utility, bids, others, capacities)
            # Cap the synthetic "infinite" first-bid marginals so the
            # ascent direction stays finite.
            grad = np.minimum(grad, 1e6)
            scale = float(np.abs(grad).max())
            if scale <= 0.0:
                break
            candidate = _project_to_simplex(bids + (step / scale) * grad, budget)
            candidate_value = objective(candidate)
            if candidate_value > value + 1e-15:
                moved = float(np.max(np.abs(candidate - bids)))
                bids, value = candidate, candidate_value
                step = min(step * 1.5, budget)  # expand while improving
                if moved < self.tolerance * budget:
                    break
            else:
                step *= 0.5
                if step < self.tolerance * budget:
                    break
        return bids


class PriceTakingBidder(HillClimbBidder):
    """A naive bidder that treats broadcast prices as fixed.

    The paper's bidders are *price-anticipating* (Equation 2: a player
    predicts how its own bid moves its allocation through the shared
    price).  The classic alternative from the literature the paper
    builds on (Feldman et al.; Kelly-style proportional fairness) is
    *price-taking*: assume ``r_j = b_j / p_j`` with ``p_j`` fixed at the
    last broadcast value.  Price takers over-bid on contested resources
    (they ignore that their own money inflates the price), which is the
    behaviour the bidding ablation quantifies.

    The climb is :class:`HillClimbBidder`'s with this marginal; it always
    starts at full step (step hints are ignored), and it exposes no
    :attr:`last_marginals`, since its marginals are not Equation 7's.
    """

    def optimize_all(
        self,
        utilities: Sequence[UtilityFunction],
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray] = None,
        step_hints: Optional[np.ndarray] = None,
        evaluator: Optional[BatchedUtilitySet] = None,
    ) -> np.ndarray:
        bids = super().optimize_all(
            utilities, budgets, others, capacities, current_bids, None, evaluator
        )
        self.last_marginals = self.last_fresh = None
        return bids

    def _marginal_rule(
        self,
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray],
        evaluator: BatchedUtilitySet,
    ) -> _MarginalRule:
        """``dU/dr / p`` at prices fixed from the previous bids."""
        # Fixed prices from the last broadcast (Equation 1 with the
        # player's previous bids included).  The climb starts from the
        # same bids, so the bids it optimizes match the prices assumed.
        if current_bids is None:
            previous = np.repeat(budgets[:, None] / capacities.size, capacities.size, axis=1)
        else:
            previous = np.maximum(np.asarray(current_bids, dtype=float), 0.0)
        prices = np.maximum((others + previous) / capacities, 1e-12)

        def marginals(rows: np.ndarray, bids: np.ndarray) -> np.ndarray:
            row_prices = prices[rows]
            allocations = np.minimum(bids / row_prices, capacities)
            du_dr = evaluator.gradients(allocations, rows)
            return np.where(allocations < capacities, du_dr / row_prices, 0.0)

        return marginals


def _project_to_simplex(vector: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of ``vector`` onto ``{x >= 0, sum x = total}``."""
    if total <= 0.0:
        return np.zeros_like(vector)
    sorted_desc = np.sort(vector)[::-1]
    cumulative = np.cumsum(sorted_desc) - total
    ranks = np.arange(1, vector.size + 1)
    feasible = sorted_desc - cumulative / ranks > 0
    rho = int(np.nonzero(feasible)[0][-1])
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(vector - theta, 0.0)
