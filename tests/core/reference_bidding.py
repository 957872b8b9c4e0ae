"""Scalar reference implementations of the Section 4.1.2 hill climb.

One player at a time, one scalar gradient call per climb step: the
straightforward reading of the paper's procedure.  The library's single
batched climb (:class:`repro.core.HillClimbBidder` and its
:class:`repro.core.PriceTakingBidder` subclass) must return exactly the
bids these produce, row for row; the tests compare against them.
Both answer a block through :class:`ScalarBidder`'s row loop, which
returns no marginals, so passing one to ``find_equilibrium`` runs the
per-player rounds and has the search derive every final lambda afresh;
:func:`player_lambda` is the scalar form of that lambda.  Both seed from
:func:`warm_start_bids`, the per-row form of the climb's Step 1, and
read :func:`marginal_utility_of_bids`, the per-row form of Equation 7.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core import BiddingStrategy
from repro.core.player import _equation_2_and_7
from repro.utility.base import UtilityFunction


def bid_to_allocation(bids, others, capacities):
    """Equation 2, ``r_j = b_j / (b_j + y_j) * C_j``, for one bid row."""
    return _equation_2_and_7(bids, others, capacities)[0]


def marginal_utility_of_bids(utility, bids, others, capacities):
    """Equation 7 for one bid row, through ``utility``'s per-point gradient.

    The library evaluates the same chain rule on batched gradients
    (:func:`repro.core.player.marginal_utility_of_bids_batch`); each row
    of it must equal this bitwise.
    """
    allocation, dr_db = _equation_2_and_7(bids, others, capacities)
    return np.asarray(utility.gradient(allocation), dtype=float) * dr_db


def player_lambda(utility, bids, others, capacities) -> float:
    """The player-specific multiplier ``lambda_i`` at a bid vector.

    At an optimum, all resources with non-zero bids share the same
    marginal utility (Equation 4); this is the maximum marginal over
    resources with non-zero bids, or the largest non-negative marginal
    when the player bids on nothing.
    """
    marginals = marginal_utility_of_bids(utility, bids, others, capacities)
    active = bids > 1e-12
    if not np.any(active):
        return float(marginals.max(initial=0.0))
    return float(marginals[active].max())


class ScalarBidder(BiddingStrategy):
    """Answers a block of rows with one scalar :meth:`optimize` per row."""

    def optimize_all(
        self, evaluator, players, budgets, others, capacities,
        current_bids=None, step_hints=None,
    ):
        bids = np.array([
            self.optimize(
                evaluator.utilities[player],
                float(budgets[k]),
                others[k],
                capacities,
                current_bids=None if current_bids is None else current_bids[k],
                step_hint=None if step_hints is None else float(step_hints[k]),
            )
            for k, player in enumerate(players)
        ])
        return bids, None

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
        """One player's new bid vector (length M, sums to budget)."""


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


class ScalarHillClimbBidder(ScalarBidder):
    """Price-anticipating climb on Equation 7 marginals."""

    def __init__(self, lambda_tolerance: float = 0.05, step_stop_fraction: float = 0.01):
        self.lambda_tolerance = lambda_tolerance
        self.step_stop_fraction = step_stop_fraction

    def _stale(
        self,
        bids: np.ndarray,
        utility: UtilityFunction,
        others: np.ndarray,
        capacities: np.ndarray,
    ) -> bool:
        marginals = marginal_utility_of_bids(utility, bids, others, capacities)
        donors = np.where(bids > 1e-12)[0]
        if donors.size == 0:
            return False
        hi = float(marginals.max())
        lo = float(marginals[donors].min())
        return hi > 0.0 and hi - lo > 2.0 * self.lambda_tolerance * hi

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

        cold_step = budget / (2.0 * num_resources)
        min_step = self.step_stop_fraction * budget

        warm = warm_start_bids(current_bids, budget, num_resources)
        if warm is None:
            bids = np.full(num_resources, budget / num_resources)
            step = cold_step
        else:
            bids = warm
            if step_hint is None or self._stale(warm, utility, others, capacities):
                step = cold_step
            else:
                step = float(np.clip(step_hint, 2.0 * min_step, cold_step))

        while step >= min_step:
            marginals = marginal_utility_of_bids(utility, bids, others, capacities)
            active = bids > 1e-12
            donor_candidates = np.where(active)[0]
            if donor_candidates.size == 0:
                break
            donor = donor_candidates[np.argmin(marginals[donor_candidates])]
            recipient = int(np.argmax(marginals))
            hi, lo = marginals[recipient], marginals[donor]
            if recipient == donor or hi <= 0.0:
                break
            if hi - lo <= self.lambda_tolerance * hi:
                break
            moved = min(step, bids[donor])
            bids[donor] -= moved
            bids[recipient] += moved
            step *= 0.5
        return bids


class ScalarPriceTakingBidder(ScalarBidder):
    """Price-taking climb: ``r = b / p`` at prices fixed from the previous bids."""

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
        num_resources = capacities.size
        if budget <= 0.0:
            return np.zeros(num_resources)
        if num_resources == 1:
            return np.array([budget])

        previous = (
            current_bids
            if current_bids is not None
            else np.full(num_resources, budget / num_resources)
        )
        prices = (others + np.maximum(np.asarray(previous, dtype=float), 0.0)) / capacities
        prices = np.maximum(prices, 1e-12)

        warm = warm_start_bids(current_bids, budget, num_resources)
        bids = warm if warm is not None else np.full(num_resources, budget / num_resources)
        step = budget / (2.0 * num_resources)
        min_step = self.step_stop_fraction * budget
        while step >= min_step:
            allocation = np.minimum(bids / prices, capacities)
            du_dr = np.asarray(utility.gradient(allocation), dtype=float)
            marginals = np.where(allocation < capacities, du_dr / prices, 0.0)
            active = bids > 1e-12
            donors = np.where(active)[0]
            if donors.size == 0:
                break
            donor = donors[np.argmin(marginals[donors])]
            recipient = int(np.argmax(marginals))
            hi, lo = marginals[recipient], marginals[donor]
            if recipient == donor or hi <= 0.0 or hi - lo <= self.lambda_tolerance * hi:
                break
            moved = min(step, bids[donor])
            bids[donor] -= moved
            bids[recipient] += moved
            step *= 0.5
        return bids
