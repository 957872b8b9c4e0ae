"""The proportional-share market (Section 2 of the paper).

The market collects a bid matrix ``b`` (players x resources), prices each
resource at ``p_j = sum_i b_ij / C_j`` (Equation 1) and allocates
``r_ij = b_ij / p_j`` — i.e. proportionally to bids.  The market itself is
deliberately thin: all intelligence lives in the players' bidding
strategies and in the budget-reassignment layer above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from ..qa import sanitize as _sanitize
from ..utility.batch import BatchedUtilitySet
from .player import Player, bid_to_allocation
from .resources import ResourceSet

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
    """A proportional-share market over a fixed player and resource set."""

    def __init__(
        self,
        resources: ResourceSet,
        players: Sequence[Player],
        compile_evaluator: Optional[Callable[[], BatchedUtilitySet]] = None,
    ):
        if not players:
            raise MarketConfigurationError("a market needs at least one player")
        for player in players:
            if player.utility.num_resources != len(resources):
                raise MarketConfigurationError(
                    f"player {player.name!r} utility covers "
                    f"{player.utility.num_resources} resources, market has {len(resources)}"
                )
        self.resources = resources
        self.players: List[Player] = list(players)
        self._compile_evaluator = compile_evaluator or (
            lambda: BatchedUtilitySet([p.utility for p in self.players])
        )
        self._evaluator: Optional[BatchedUtilitySet] = None

    @property
    def num_players(self) -> int:
        return len(self.players)

    @property
    def num_resources(self) -> int:
        return len(self.resources)

    @property
    def capacities(self) -> np.ndarray:
        return self.resources.capacities

    @property
    def evaluator(self) -> BatchedUtilitySet:
        """The players' utilities compiled into one batched evaluator.

        Compiled on first use, not at construction, and shared by every
        search on this market: all rounds of a ReBudget run best-respond
        through the same compiled plan.  A market built with
        ``compile_evaluator`` takes its plan from that callable (an
        :class:`~repro.core.mechanisms.AllocationProblem` hands out the
        one it compiled for the same utilities).
        """
        if self._evaluator is None:
            self._evaluator = self._compile_evaluator()
        return self._evaluator

    @property
    def budgets(self) -> np.ndarray:
        return np.array([p.budget for p in self.players], dtype=float)

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

    def others_bids(self, bids: np.ndarray, player_index: int) -> np.ndarray:
        """``y_ij``: the sum of every other player's bids per resource."""
        bids = self._check_bids(bids)
        return bids.sum(axis=0) - bids[player_index]

    def allocation_for(self, bids: np.ndarray, player_index: int) -> np.ndarray:
        """Allocation player ``player_index`` receives under ``bids``."""
        others = self.others_bids(bids, player_index)
        return bid_to_allocation(bids[player_index], others, self.capacities)

    def utilities(self, allocations: np.ndarray) -> np.ndarray:
        """Vector of player utilities for an allocation matrix."""
        return np.array(
            [p.utility_of(allocations[i]) for i, p in enumerate(self.players)]
        )

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
