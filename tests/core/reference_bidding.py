"""Scalar reference implementations of the Section 4.1.2 hill climb.

One player at a time, one scalar gradient call per climb step: the
straightforward reading of the paper's procedure.  The library's single
batched climb (:class:`repro.core.HillClimbBidder` and its
:class:`repro.core.PriceTakingBidder` subclass) must return exactly the
bids these produce, row for row; the tests compare against them.
Both inherit :meth:`BiddingStrategy.optimize_all`, so passing one to
``find_equilibrium`` runs the per-player Jacobi rounds.
"""

from __future__ import annotations

import numpy as np

from repro.core import BiddingStrategy
from repro.core.player import marginal_utility_of_bids
from repro.utility.base import UtilityFunction


class ScalarHillClimbBidder(BiddingStrategy):
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

        warm = self.warm_start_bids(current_bids, budget, num_resources)
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


class ScalarPriceTakingBidder(BiddingStrategy):
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

        warm = self.warm_start_bids(current_bids, budget, num_resources)
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
