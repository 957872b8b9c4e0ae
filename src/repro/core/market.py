"""The proportional-share market (Section 2 of the paper).

The market collects a bid matrix ``b`` (players x resources), prices each
resource at ``p_j = sum_i b_ij / C_j`` (Equation 1) and allocates
``r_ij = b_ij / p_j`` — i.e. proportionally to bids.  The market itself is
deliberately thin: all intelligence lives in the players' bidding
strategies and in the budget-reassignment layer above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from ..qa import sanitize as _sanitize
from ..utility.batch import BatchedUtilitySet

if TYPE_CHECKING:
    from .mechanisms import AllocationProblem

__all__ = ["Market", "MarketState"]


@dataclass
class MarketState:
    """A snapshot of the market at one pricing round."""

    bids: np.ndarray        # (N, M) bid matrix
    prices: np.ndarray      # (M,) per-unit prices
    allocations: np.ndarray  # (N, M) resource units per player

    @property
    def num_players(self) -> int:
        return self.bids.shape[0]

    @property
    def num_resources(self) -> int:
        return self.bids.shape[1]


class Market:
    """A proportional-share market: an allocation problem plus budgets.

    ``problem`` supplies the players' utilities, the resource names and
    capacities ``C``, and the compiled evaluator; the market adds one
    budget ``B_i`` per player.  A market prices every resource, so it
    rejects the problems an :class:`~repro.core.mechanisms.AllocationProblem`
    admits but a market cannot clear: no resources, duplicate resource
    names, a zero capacity, or a utility over a different resource count.
    """

    def __init__(self, problem: "AllocationProblem", budgets: Sequence[float]):
        names = list(problem.resource_names)
        if not names:
            raise MarketConfigurationError("a market needs at least one resource")
        if len(set(names)) != len(names):
            raise MarketConfigurationError(f"duplicate resource names: {names}")
        for name, capacity in zip(names, problem.capacities):
            if capacity <= 0.0:
                raise MarketConfigurationError(
                    f"resource {name!r} must have positive capacity, got {capacity}"
                )
        for name, utility in zip(problem.player_names, problem.utilities):
            if utility.num_resources != len(names):
                raise MarketConfigurationError(
                    f"player {name!r} utility covers "
                    f"{utility.num_resources} resources, market has {len(names)}"
                )
        self.problem = problem
        self.budgets = budgets

    @property
    def num_players(self) -> int:
        return self.problem.num_players

    @property
    def num_resources(self) -> int:
        return self.problem.num_resources

    @property
    def capacities(self) -> np.ndarray:
        return self.problem.capacities

    @property
    def evaluator(self) -> BatchedUtilitySet:
        """The problem's compiled evaluator, shared by every search on it."""
        return self.problem.evaluator

    @property
    def budgets(self) -> np.ndarray:
        """Per-player budgets ``B_i`` as one read-only array.

        Budgets change only by assignment (:func:`~repro.core.rebudget.run_rebudget`
        assigns each round's cuts), so an array read earlier — a round's
        budgets, a warm start's — never changes under its reader.
        """
        return self._budgets

    @budgets.setter
    def budgets(self, budgets: Sequence[float]) -> None:
        budgets = np.array(budgets, dtype=float)
        if budgets.shape != (self.num_players,):
            raise MarketConfigurationError(
                f"budgets shape {budgets.shape} != (players,) {(self.num_players,)}"
            )
        if not np.all(np.isfinite(budgets) & (budgets >= 0.0)):
            raise MarketConfigurationError(
                f"budgets must be finite and >= 0, got {budgets}"
            )
        budgets.flags.writeable = False
        self._budgets = budgets

    def prices(self, bids: np.ndarray) -> np.ndarray:
        """Per-unit resource prices for a bid matrix (Equation 1)."""
        bids = self._check_bids(bids)
        return bids.sum(axis=0) / self.capacities

    def allocate(self, bids: np.ndarray) -> MarketState:
        """Clear the market: price resources and allocate proportionally."""
        bids = self._check_bids(bids)
        prices = bids.sum(axis=0) / self.capacities
        totals = bids.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            shares = np.where(totals > 0.0, bids / np.where(totals > 0.0, totals, 1.0), 0.0)
        allocations = shares * self.capacities
        if _sanitize.ACTIVE:
            _sanitize.check_prices(prices)
            _sanitize.check_spending(bids, self.budgets)
            _sanitize.check_allocation(allocations, self.capacities)
        return MarketState(bids=bids, prices=prices, allocations=allocations)

    def equal_split_bids(self) -> np.ndarray:
        """Every player splits its whole budget evenly across resources.

        This is the initial bid state of the paper's hill-climbing
        procedure (Section 4.1.2, step 1).
        """
        budgets = self.budgets
        return np.tile(budgets[:, None] / self.num_resources, (1, self.num_resources))

    def is_strongly_competitive(self, bids: np.ndarray) -> bool:
        """True when every resource receives non-zero bids from >= 2 players.

        Zhang's existence result (Lemma 1) applies to strongly
        competitive markets.
        """
        bids = self._check_bids(bids)
        return bool(np.all((bids > 0.0).sum(axis=0) >= 2))

    def _check_bids(self, bids: np.ndarray) -> np.ndarray:
        bids = np.asarray(bids, dtype=float)
        expected = (self.num_players, self.num_resources)
        if bids.shape != expected:
            raise MarketConfigurationError(
                f"bid matrix shape {bids.shape} != (players, resources) {expected}"
            )
        # NaN compares False against any bound, so finiteness is checked
        # on its own; np.maximum below would carry a NaN straight through.
        if not np.all(np.isfinite(bids)):
            raise MarketConfigurationError("bids must be finite")
        if np.any(bids < -1e-12):
            raise MarketConfigurationError("bids must be non-negative")
        return np.maximum(bids, 0.0)
