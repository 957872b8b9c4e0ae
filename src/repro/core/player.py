"""A player's view of the market: Equations 2 and 7.

A player (one per core in the multicore instantiation) owns a budget and
a concave utility function over the market's resources; the market holds
both (:class:`~repro.core.market.Market`).  The player's only
interaction with the market is through its bid vector; everything else
(the allocation its bids buy, marginal utilities with respect to bids)
is local, which is what makes the mechanism distributed and scalable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..qa import sanitize as _sanitize
from ..utility.batch import BatchedUtilitySet

__all__ = ["marginal_utility_of_bids_batch"]

#: Finite stand-in for the infinite first-bid marginal (``y_j == 0``):
#: large enough to dominate any real marginal, scaled by capacity so the
#: bytes-vs-watts resources keep their relative ordering.
_FIRST_BID_RATE = 1e9


def _equation_2_and_7(bids, others, capacities):
    """Equation 2's allocation and Equation 7's ``dr_j/db_j`` from one total.

    ``total > 0`` and its divisor-safe copy are computed once and shared
    by the allocation ``b_j / (b_j + y_j) * C_j`` and the allocation's
    bid derivative ``y_j * C_j / (b_j + y_j)^2``.  When nobody bids on a
    resource the allocation is zero and a first bid captures all of it,
    a rate taken as ``C_j * _FIRST_BID_RATE``, as is a derivative that
    overflows.  Broadcasts over a leading row axis.
    """
    total = bids + others
    positive = total > 0.0
    safe = np.where(positive, total, 1.0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        allocation = np.where(positive, bids / safe, 0.0) * capacities
        dr_db = np.where(positive, others * capacities / safe ** 2, np.inf)
    dr_db = np.where(np.isinf(dr_db), capacities * _FIRST_BID_RATE, dr_db)
    if _sanitize.ACTIVE:
        _sanitize.check_player_allocations(allocation, capacities)
    return allocation, dr_db


def marginal_utility_of_bids_batch(
    bids: np.ndarray,
    others: np.ndarray,
    capacities: np.ndarray,
    evaluator: BatchedUtilitySet,
    players: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Equation 7 marginals for a ``(K, M)`` batch of bid rows.

    Row ``k`` is evaluated under ``evaluator``'s player ``players[k]``
    (default: players ``0..K-1``), with ``others[k]`` the sum of the
    other players' bids.  By the chain rule (Equation 7 in the paper's
    appendix)::

        dU/db_j = dU/dr_j * y_j * C_j / (b_j + y_j)^2

    with ``r`` Equation 2's allocation (:func:`_equation_2_and_7`) and
    the utility gradients one batched dispatch for every row.  When
    ``y_j == 0`` the player already owns the whole resource for any
    positive bid, so the marginal value of bidding more is zero.  A
    row's result depends on that row alone, so a one-row block is
    bitwise the same row of a larger batch.
    """
    allocation, dr_db = _equation_2_and_7(bids, others, capacities)
    marginals = evaluator.gradients(allocation, players) * dr_db
    if _sanitize.ACTIVE:
        _sanitize.check_marginals(marginals)
    return marginals
