"""Market players.

A player (one per core in the multicore instantiation) owns a budget and
a concave utility function over the market's resources.  The player's
only interaction with the market is through its bid vector; everything
else (utility introspection, marginal utilities with respect to bids) is
local, which is what makes the mechanism distributed and scalable.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from ..qa import sanitize as _sanitize
from ..utility.base import UtilityFunction
from ..utility.batch import BatchedUtilitySet

__all__ = [
    "Player",
    "bid_to_allocation",
    "marginal_utility_of_bids",
    "marginal_utility_of_bids_batch",
]

#: Finite stand-in for the infinite first-bid marginal (``y_j == 0``):
#: large enough to dominate any real marginal, scaled by capacity so the
#: bytes-vs-watts resources keep their relative ordering.
_FIRST_BID_RATE = 1e9


class Player:
    """A budget-constrained utility maximizer.

    Parameters
    ----------
    name:
        Display name (e.g. the application running on the core).
    utility:
        Concave, non-decreasing utility over the market's M resources.
    budget:
        Total money the player may spend across all resources
        (``sum_j b_ij <= B_i``).
    """

    def __init__(self, name: str, utility: UtilityFunction, budget: float):
        if not 0.0 <= budget < math.inf:
            raise MarketConfigurationError(
                f"player {name!r} budget must be finite and >= 0, got {budget}"
            )
        self.name = name
        self.utility = utility
        self.budget = float(budget)

    def utility_of(self, allocation: Sequence[float]) -> float:
        """Utility of an allocation vector (length M)."""
        return self.utility.value(allocation)

    def __repr__(self) -> str:
        return f"Player({self.name!r}, budget={self.budget})"


def bid_to_allocation(bids: np.ndarray, others: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Allocation a player receives for ``bids`` given others' bids.

    Implements Equation 2 of the paper:
    ``r_j = b_j / (b_j + y_j) * C_j``, where ``y_j`` is the sum of the
    other players' bids on resource ``j``.  When nobody bids on a
    resource at all (``b_j + y_j == 0``) the player receives nothing.

    The arithmetic broadcasts over a leading axis: ``(K, M)`` bid rows
    against ``(K, M)`` or ``(M,)`` others give row ``k`` bitwise equal
    to the one-row call.
    """
    total = bids + others
    with np.errstate(invalid="ignore", divide="ignore"):
        shares = np.where(total > 0.0, bids / np.where(total > 0.0, total, 1.0), 0.0)
    allocation = shares * capacities
    if _sanitize.ACTIVE:
        _sanitize.check_player_allocations(allocation, capacities)
    return allocation


def marginal_utility_of_bids(
    utility: UtilityFunction,
    bids: np.ndarray,
    others: np.ndarray,
    capacities: np.ndarray,
) -> np.ndarray:
    """Per-resource marginal utility of bids, ``lambda_ij = dU/db_ij``.

    By the chain rule (Equation 7 in the paper's appendix)::

        dU/db_j = dU/dr_j * y_j * C_j / (b_j + y_j)^2

    When ``y_j == 0`` the player already owns the whole resource for any
    positive bid, so the marginal value of bidding more is zero.
    """
    allocation = bid_to_allocation(bids, others, capacities)
    du_dr = np.asarray(utility.gradient(allocation), dtype=float)
    total = bids + others
    with np.errstate(invalid="ignore", divide="ignore"):
        dr_db = np.where(
            total > 0.0,
            others * capacities / np.where(total > 0.0, total, 1.0) ** 2,
            # A first bid on an un-bid resource captures all of it; treat
            # the marginal as the utility slope times full capture rate.
            np.inf,
        )
    # Replace the infinite first-bid marginals with a large finite value
    # proportional to the utility slope so comparisons stay meaningful.
    dr_db = np.where(np.isinf(dr_db), capacities * _FIRST_BID_RATE, dr_db)
    marginals = du_dr * dr_db
    if _sanitize.ACTIVE:
        _sanitize.check_marginals(marginals)
    return marginals


def marginal_utility_of_bids_batch(
    bids: np.ndarray,
    others: np.ndarray,
    capacities: np.ndarray,
    evaluator: BatchedUtilitySet,
    players: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Equation 7 marginals for a ``(K, M)`` batch of bid rows.

    Row ``k`` is evaluated under ``evaluator``'s player ``players[k]``
    (default: players ``0..K-1``) and equals ``marginal_utility_of_bids(
    evaluator.utilities[players[k]], bids[k], others[k], capacities)``
    bitwise.
    """
    allocations = bid_to_allocation(bids, others, capacities)
    du_dr = evaluator.gradients(allocations, players)
    total = bids + others
    with np.errstate(invalid="ignore", divide="ignore"):
        dr_db = np.where(
            total > 0.0,
            others * capacities / np.where(total > 0.0, total, 1.0) ** 2,
            np.inf,
        )
    dr_db = np.where(np.isinf(dr_db), capacities * _FIRST_BID_RATE, dr_db)
    marginals = du_dr * dr_db
    if _sanitize.ACTIVE:
        _sanitize.check_marginals(marginals)
    return marginals
