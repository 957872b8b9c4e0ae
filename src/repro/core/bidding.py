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
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..utility.batch import BatchedUtilitySet, _equation_2_and_7
from .player import marginal_utility_of_bids_batch

__all__ = [
    "BiddingStrategy",
    "HillClimbBidder",
    "ExactBidder",
    "PriceTakingBidder",
]

#: Relative spread of marginal utilities at which a hill climb stops.
_LAMBDA_TOLERANCE = 0.05

#: A hill climb stops once its shift amount ``S`` falls below this
#: fraction of the player's budget (the paper's 1%).
_STEP_STOP_FRACTION = 0.01

#: Relative distance from the budget within which a seed's total makes
#: it a hill climb's warm start.
_SEED_TOLERANCE = 1e-6

#: Gradient steps, and the move (relative to the budget) below which the
#: ascent stops, of :class:`ExactBidder`.
_EXACT_MAX_ITERATIONS = 200
_EXACT_TOLERANCE = 1e-9

#: ``marginals(rows, bids)``: the marginal utilities of money of block
#: rows ``rows`` at their bid rows ``bids``, one list of M floats per row.
_MarginalRule = Callable[[List[int], List[List[float]]], List[List[float]]]


class BiddingStrategy(abc.ABC):
    """Best-responds a block of players to the broadcast bids."""

    @abc.abstractmethod
    def optimize_all(
        self,
        evaluator: BatchedUtilitySet,
        players: np.ndarray,
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray] = None,
        step_hints: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Best-respond for a block of players against fixed ``others`` bids.

        Row ``k`` of the block belongs to ``evaluator``'s player
        ``players[k]``: ``budgets`` is ``(K,)`` and ``others`` is ``(K,
        M)`` (row ``k`` is the sum of the *other* players' bids as that
        player sees them).  ``current_bids`` is the block's ``(K, M)``
        bids from the previous round (or epoch); strategies that support
        warm starts begin each search there instead of from an equal
        split.  ``step_hints`` is how far each player's bids moved in the
        previous round — warm climbs size their first step to it so a
        near-converged player does not re-explore the whole simplex.

        A row may carry no seed or no hint while others do: a
        ``current_bids`` row with a non-finite entry is no seed (the row
        starts from the equal split), and a ``NaN`` hint is no hint.
        Rows are independent, so blocks of several markets stack.

        Returns ``(bids, marginals)``: the new non-negative ``(K, M)`` bid
        matrix, each row within its budget, and the ``(K, M)``
        Equation 7 marginals, row ``k`` at exactly ``bids[k]`` when the
        strategy evaluated it there and ``NaN`` otherwise — or ``None``
        when the strategy evaluates no marginals at its bids.
        """


class HillClimbBidder(BiddingStrategy):
    """The exponential back-off hill climb of Section 4.1.2.

    Jacobi rounds make players independent within a round (everyone
    best-responds to the same broadcast bids), so :meth:`optimize_all`
    advances every climb of a block in lockstep: each iteration makes
    one marginal request over the players still climbing, each with its
    own step size and stop state.  The climb's state (bids, steps, stop
    flags, the staleness probe) and its decisions (donor, recipient,
    stop, move) are Python floats and lists, and the default request
    (:meth:`BatchedUtilitySet.bid_marginals
    <repro.utility.batch.BatchedUtilitySet.bid_marginals>`) answers grid
    players with a compiled Python-float kernel, so an iteration costs
    per row, not per numpy dispatch.  The decisions keep numpy's rules:
    the first index wins a tie and the first NaN wins ``argmax`` and
    ``argmin`` (:func:`_extremes`), and hints are clipped as ``np.clip``
    does (:func:`_clip`).  On hinted (warm) calls the staleness probe counts
    as the first iteration, which then evaluates only rows the probe did
    not cover; a warm verification round therefore costs one request.
    With the bids, the call returns the Equation 7 marginals of every
    row whose last evaluation was at its returned bids — the row did not
    move after it — and ``NaN`` in every other row.  Subclasses change
    the marginal the climb reads through :meth:`_marginal_rule`.

    A climb stops when its max and min marginal utilities agree within
    5%, or when its shift amount ``S`` falls below 1% of the player's
    budget (the paper's tolerances).
    """

    def _marginal_rule(
        self,
        evaluator: BatchedUtilitySet,
        players: np.ndarray,
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray],
    ) -> _MarginalRule:
        """The marginal utility of money the climb equalizes: Equation 7."""
        player_of, others_of = players.tolist(), others.tolist()
        capacity = capacities.tolist()

        def marginals(rows: List[int], bids: List[List[float]]) -> List[List[float]]:
            return evaluator.bid_marginals(
                [player_of[k] for k in rows], bids, [others_of[k] for k in rows], capacity
            )

        return marginals

    def optimize_all(
        self,
        evaluator: BatchedUtilitySet,
        players: np.ndarray,
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray] = None,
        step_hints: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        players = np.asarray(players, dtype=np.intp)
        budgets = np.asarray(budgets, dtype=float)
        others = np.asarray(others, dtype=float)
        capacities = np.asarray(capacities, dtype=float)
        num_players = budgets.size
        num_resources = capacities.size
        marginals_at = self._marginal_rule(
            evaluator, players, budgets, others, capacities, current_bids
        )

        if num_resources == 1:
            bids = np.zeros((num_players, 1))
            bids[:, 0] = np.maximum(budgets, 0.0)
            bids[budgets <= 0.0, 0] = 0.0
            return bids, None

        budget = budgets.tolist()
        cold_step = [b / (2.0 * num_resources) for b in budget]
        min_step = [_STEP_STOP_FRACTION * b for b in budget]
        step = list(cold_step)

        # Step 1: start from the previous bids when they are a reusable
        # seed whose total is within 1e-6 of the budget; otherwise from
        # an equal split.  S is half of one equal-split bid, shrunk to
        # the last move for hinted warm starts whose seed is not stale.
        # Players with no budget keep zero bids and never climb.
        seed, warm = _seed_bids(budgets, current_bids, num_resources, _SEED_TOLERANCE)
        bids = seed.tolist()

        # Staleness probe: the climb moves at most ~2x its initial step
        # per call, so a hint-sized step cannot recover from a large
        # utility shift.  A marginal imbalance beyond twice the stop
        # tolerance means the seed is stale and the climb needs full
        # mobility from the warm point.
        # Only warm rows with a hint are probed (a NaN hint is none).
        probe: dict = {}
        if step_hints is not None:
            hints = np.asarray(step_hints, dtype=float)
            probed = np.flatnonzero(warm & ~np.isnan(hints)).tolist()
            if probed:
                hint = hints.tolist()
                probe = dict(zip(probed, marginals_at(probed, [bids[k] for k in probed])))
            for k, marginals in probe.items():
                _, _, hi, lo, bidding = _extremes(marginals, bids[k])
                stale = bidding and hi > 0.0 and hi - lo > 2.0 * _LAMBDA_TOLERANCE * hi
                step[k] = (
                    cold_step[k] if stale else _clip(hint[k], 2.0 * min_step[k], cold_step[k])
                )

        # Each iteration works on the rows still climbing, in ascending
        # order; a row leaves once it stops or its step falls below the
        # stop size.  ``evaluated[k]`` is row k's last marginals and
        # ``fresh[k]`` whether they are at its current bids.
        evaluated: List[Optional[List[float]]] = [None] * num_players
        fresh = [False] * num_players
        rows = [k for k in range(num_players) if budget[k] > 0.0 and step[k] >= min_step[k]]
        while rows:
            if probe:
                # The probe is the first iteration: no bid has moved
                # since, and each row's marginals depend only on its own
                # bids, so only rows it did not cover are evaluated.
                unprobed = [k for k in rows if k not in probe]
                if unprobed:
                    fresh_rows = marginals_at(unprobed, [bids[k] for k in unprobed])
                    probe.update(zip(unprobed, fresh_rows))
                marginals = [probe[k] for k in rows]
                probe = {}
            else:
                marginals = marginals_at(rows, [bids[k] for k in rows])
            climbing = []
            for k, row_marginals in zip(rows, marginals):
                evaluated[k] = row_marginals
                row = bids[k]
                donor, recipient, hi, lo, bidding = _extremes(row_marginals, row)
                # Stop when marginals already agree within tolerance.
                if (
                    not bidding
                    or recipient == donor
                    or hi <= 0.0
                    or hi - lo <= _LAMBDA_TOLERANCE * hi
                ):
                    fresh[k] = True
                    continue
                fresh[k] = False
                # np.minimum: a NaN bid wins (a step is never NaN).
                s, available = step[k], row[donor]
                moved = s if s <= available else available
                row[donor] -= moved
                row[recipient] += moved
                # Step 3: exponential back-off.
                step[k] = s = s * 0.5
                if s >= min_step[k]:
                    climbing.append(k)
            rows = climbing
        stale_row = [math.nan] * num_resources
        return (
            np.array(bids, dtype=float).reshape(num_players, num_resources),
            np.array(
                [m if f else stale_row for m, f in zip(evaluated, fresh)], dtype=float
            ).reshape(num_players, num_resources),
        )


class ExactBidder(BiddingStrategy):
    """Projected gradient ascent on the budget simplex.

    Maximizes ``U(r(b))`` over ``{b >= 0, sum b = budget}``.  The
    objective is concave whenever ``U`` is concave and non-decreasing
    (each ``r_j(b_j)`` is concave), so gradient ascent with a simplex
    projection converges to the true best response.  Slower but sharper
    than :class:`HillClimbBidder`; used in the bidding ablation.
    """

    def optimize_all(
        self,
        evaluator: BatchedUtilitySet,
        players: np.ndarray,
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray] = None,
        step_hints: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, None]:
        players = np.asarray(players, dtype=np.intp)
        bids = np.array([
            self._ascend(
                evaluator,
                players[k:k + 1],
                float(budgets[k]),
                others[k:k + 1],
                capacities,
                None if current_bids is None else current_bids[k],
            )
            for k in range(players.size)
        ])
        return bids, None

    @staticmethod
    def _ascend(
        evaluator: BatchedUtilitySet,
        player: np.ndarray,
        budget: float,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray],
    ) -> np.ndarray:
        """One player's best response, from its seed or the equal split.

        ``player`` and ``others`` are the player's one-row block: every
        value and Equation 7 marginal is a one-row evaluation of
        ``evaluator``, bitwise the per-point one.
        """
        num_resources = capacities.size
        if budget <= 0.0:
            return np.zeros(num_resources)
        if num_resources == 1:
            return np.array([budget])

        seed = None if current_bids is None else np.asarray(current_bids, dtype=float)[None]
        bids = _seed_bids(np.array([budget]), seed, num_resources, math.inf)[0][0]

        def objective(b: np.ndarray) -> float:
            allocation = _equation_2_and_7(b[None], others, capacities)[0]
            return evaluator.values(allocation, player)[0]

        value = objective(bids)
        step = budget / 4.0
        for _ in range(_EXACT_MAX_ITERATIONS):
            grad = marginal_utility_of_bids_batch(
                bids[None], others, capacities, evaluator, player
            )[0]
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
                if moved < _EXACT_TOLERANCE * budget:
                    break
            else:
                step *= 0.5
                if step < _EXACT_TOLERANCE * budget:
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
    starts at full step (step hints are ignored), and it returns no
    marginals, since its marginals are not Equation 7's.
    """

    def optimize_all(
        self,
        evaluator: BatchedUtilitySet,
        players: np.ndarray,
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray] = None,
        step_hints: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, None]:
        bids, _ = super().optimize_all(
            evaluator, players, budgets, others, capacities, current_bids
        )
        return bids, None

    def _marginal_rule(
        self,
        evaluator: BatchedUtilitySet,
        players: np.ndarray,
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray],
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

        def marginals(rows: List[int], bids: List[List[float]]) -> List[List[float]]:
            row_prices = prices[rows]
            allocations = np.minimum(np.array(bids) / row_prices, capacities)
            du_dr = evaluator.gradients(allocations, players[rows])
            return np.where(allocations < capacities, du_dr / row_prices, 0.0).tolist()

        return marginals


def _seed_bids(
    budgets: np.ndarray,
    current_bids: Optional[np.ndarray],
    num_resources: int,
    tolerance: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Start bids ``(K, M)`` for a block of climbs, and which rows are warm.

    The one seed rule of every bidder.  A row of ``current_bids`` is a
    reusable seed when it is finite and, clamped at 0, has a positive
    total within ``tolerance`` (relative; ``inf`` accepts any positive
    total) of the row's budget; it is rescaled to spend that budget
    exactly.  Every other row with a positive budget starts from the
    equal split, and a row with no budget from zero bids (no positive
    total is within tolerance of a non-positive budget).
    """
    bids = np.zeros((budgets.size, num_resources))
    spends = ~(budgets <= 0.0)
    bids[spends] = budgets[spends, None] / num_resources
    warm = np.zeros(budgets.size, dtype=bool)
    if current_bids is not None and np.shape(current_bids) == bids.shape:
        seed = np.asarray(current_bids, dtype=float)
        # Zeroing a row with any non-finite entry zeroes its total,
        # which rejects it below.
        finite = np.isfinite(seed).all(axis=1)
        seed = np.maximum(np.where(finite[:, None], seed, 0.0), 0.0)
        totals = seed.sum(axis=1)
        positive = totals > 0.0
        # A row without a positive total never warms; its tolerance is
        # scaled by 1 so that an infinite tolerance never multiplies 0.
        scale = np.where(positive, np.maximum(budgets, totals), 1.0)
        warm = positive & ~(np.abs(totals - budgets) > tolerance * scale)
        bids[warm] = seed[warm] * (budgets[warm] / totals[warm])[:, None]
    return bids, warm


def _extremes(marginals: List[float], bids: List[float]) -> tuple:
    """``(donor, recipient, hi, lo, bidding)`` of one climb row, by numpy's rules.

    The recipient is ``np.argmax(marginals)`` and ``hi`` its marginal;
    the donor is ``np.argmin`` of the marginals with every resource the
    row does not bid on (``bids[j] <= 1e-12``) masked to ``inf``, and
    ``lo`` its masked marginal; ``bidding`` is whether the row bids on
    any resource.  As in numpy, the first index wins a tie and the first
    NaN wins either search (so ``hi`` or ``lo`` is then NaN).
    """
    inf = math.inf
    recipient, hi = 0, marginals[0]
    bidding = bids[0] > 1e-12
    donor, lo = 0, hi if bidding else inf
    for j in range(1, len(marginals)):
        m = marginals[j]
        if m > hi or (m != m and hi == hi):
            recipient, hi = j, m
        if bids[j] > 1e-12:
            bidding = True
        else:
            m = inf
        if m < lo or (m != m and lo == lo):
            donor, lo = j, m
    return donor, recipient, hi, lo, bidding


def _clip(value: float, lo: float, hi: float) -> float:
    """``np.clip`` of one float as its array loop does it: a NaN value
    passes, and a bound wins a tie (so ``-0.0`` clips up to ``0.0``)."""
    value = value if value != value or value > lo else lo
    return value if value != value or value < hi else hi


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
