"""A player's view of the market: Equations 2 and 7.

A player (one per core in the multicore instantiation) owns a budget and
a concave utility function over the market's resources; the market holds
both (:class:`~repro.core.market.Market`).  The player's only
interaction with the market is through its bid vector; everything else
(the allocation its bids buy, marginal utilities with respect to bids)
is local, which is what makes the mechanism distributed and scalable.

Equations 2 and 7 themselves (``_equation_2_and_7``) live with the
batched evaluator, :mod:`repro.utility.batch`, whose per-iteration
requests from the hill climb run them fused into a compiled kernel
(:meth:`~repro.utility.batch.BatchedUtilitySet.bid_marginals`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..qa import sanitize as _sanitize
from ..utility.batch import BatchedUtilitySet, _equation_2_and_7

__all__ = ["marginal_utility_of_bids_batch"]


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

    with ``r`` Equation 2's allocation (``_equation_2_and_7``) and the
    utility gradients one batched dispatch for every row.  When
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
