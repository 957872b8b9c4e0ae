"""Iterative bidding–pricing equilibrium search (Section 2.1).

The market repeatedly (1) broadcasts prices and (2) lets every player
best-respond assuming the others' bids stay fixed.  Convergence is
detected globally by monitoring prices: the market is declared converged
when every resource price fluctuates within 1% between rounds (the
paper's criterion).  A fail-safe terminates the search after 30 rounds,
as in Section 6.4.

Warm starts
-----------
The paper re-runs the market every millisecond, and monitored utilities
barely move between consecutive epochs, so restarting every search from
an equal split discards an almost-correct answer.  Every search
therefore returns a :class:`WarmStart` — the final bid matrix plus the
budgets, prices, and per-player last-move sizes it was produced under —
which the next search can consume via ``find_equilibrium(...,
warm_start=...)``.  Warm bids are rescaled row-wise when budgets
changed, each player's hill climb resumes from its previous bids with a
step sized to its last move, and the loop's price-stability criterion
fires on the first round when the warm bids still clear the market —
so a warm-started search over an unchanged (or slowly drifting) problem
terminates after a single verification round instead of a full cold
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..qa import sanitize as _sanitize
from ..utility.base import EVAL_COUNTERS
from ..utility.batch import BatchedUtilitySet
from .bidding import BiddingStrategy, HillClimbBidder
from .market import Market, MarketState
from .player import marginal_utility_of_bids_batch

__all__ = [
    "PRICE_TOLERANCE",
    "MAX_ITERATIONS",
    "WarmStart",
    "EquilibriumResult",
    "find_equilibrium",
]

#: Paper's global price-convergence tolerance (Section 2.1).
PRICE_TOLERANCE = 0.01

#: Paper's fail-safe iteration cap (Section 6.4).
MAX_ITERATIONS = 30


@dataclass
class WarmStart:
    """Reusable end-state of an equilibrium search.

    Attributes
    ----------
    bids:
        Final (N, M) bid matrix.
    budgets:
        Per-player budgets the bids were computed under.
    prices:
        Final resource prices.
    last_moves:
        Per-player largest single-resource bid change in the final
        round — the natural first-step size for resuming each player's
        hill climb.
    converged:
        Whether the search that produced this state met the price
        criterion (a non-converged state is still a usable seed).
    anchor_prices:
        Prices at the last *full* (multi-round) search in the warm
        chain.  A warm search may accept its seed after a single
        verification round only while prices stay within the tolerance
        of this anchor; once per-epoch drift accumulates past it, a
        real re-search is forced and the anchor moves.  This bounds the
        total lag of a warm chain behind a cold re-solve to roughly the
        price tolerance, instead of letting sub-tolerance drift
        compound every epoch.
    """

    bids: np.ndarray
    budgets: np.ndarray
    prices: np.ndarray
    last_moves: Optional[np.ndarray] = None
    converged: bool = False
    anchor_prices: Optional[np.ndarray] = None

    @property
    def num_players(self) -> int:
        return self.bids.shape[0]

    @property
    def num_resources(self) -> int:
        return self.bids.shape[1]

    def compatible_with(self, market: Market) -> bool:
        """True when this state has ``market``'s player/resource shape."""
        return self.bids.shape == (market.num_players, market.num_resources)

    def bids_for(self, budgets: np.ndarray) -> Optional[np.ndarray]:
        """The stored bid matrix rescaled row-wise to new ``budgets``.

        Players whose budget changed keep their *split* but spend the
        new amount (the ReBudget re-seeding idiom); players with no
        usable previous bids fall back to an equal split.  Returns
        ``None`` when the player count does not match.
        """
        budgets = np.asarray(budgets, dtype=float)
        if budgets.shape != (self.num_players,):
            return None
        bids = np.maximum(np.asarray(self.bids, dtype=float), 0.0)
        sums = bids.sum(axis=1)
        safe = np.where(sums > 0.0, sums, 1.0)
        equal = np.tile(budgets[:, None] / self.num_resources, (1, self.num_resources))
        return np.where(sums[:, None] > 0.0, bids * (budgets / safe)[:, None], equal)


@dataclass
class EquilibriumResult:
    """Outcome of an equilibrium search.

    Attributes
    ----------
    state:
        Final market snapshot (bids, prices, allocations).
    utilities:
        Player utilities at the final allocation.
    lambdas:
        Player-specific marginal utilities of money ``lambda_i`` — the
        quantity ReBudget compares across players.
    iterations:
        Number of bidding–pricing rounds executed.
    converged:
        Whether the price-stability criterion was met (False means the
        30-round fail-safe fired).
    price_history:
        Price vector after every round, for convergence studies.
    warm_start:
        Reusable end-state for seeding the next search (see
        :class:`WarmStart`); always populated.
    warm_started:
        Whether this search was itself seeded from previous bids.
    eval_counts:
        Utility-evaluation tallies accumulated by this search
        (:meth:`~repro.utility.base.EvalCounters.since` deltas: scalar
        value/gradient dispatches, vectorized dispatches, points covered,
        plus ``scalar_calls`` / ``batch_calls`` / ``total_calls``
        roll-ups).  Benches and profilers read this instead of
        monkeypatching the utility classes.
    """

    state: MarketState
    utilities: np.ndarray
    lambdas: np.ndarray
    iterations: int
    converged: bool
    price_history: List[np.ndarray] = field(default_factory=list)
    warm_start: Optional[WarmStart] = None
    warm_started: bool = False
    eval_counts: Optional[Dict[str, int]] = None

    @property
    def efficiency(self) -> float:
        """System efficiency: the sum of player utilities (Definition 1)."""
        return float(self.utilities.sum())


def find_equilibrium(
    market: Market,
    bidder: Optional[BiddingStrategy] = None,
    initial_bids: Optional[np.ndarray] = None,
    warm_start: Optional[WarmStart] = None,
    max_iterations: int = MAX_ITERATIONS,
    price_tolerance: float = PRICE_TOLERANCE,
    update: str = "jacobi",
) -> EquilibriumResult:
    """Run the bidding–pricing loop to (approximate) market equilibrium.

    Parameters
    ----------
    market:
        The proportional-share market to clear.
    bidder:
        Bidding strategy shared by all players; defaults to the paper's
        hill climb.
    initial_bids:
        Explicit warm-start bid matrix; defaults to every player
        splitting its budget equally (the paper's initialization).
    warm_start:
        End-state of a previous search (``result.warm_start``).  Its
        bids are rescaled to the market's current budgets and each
        player's climb resumes with a step sized to its last move.
        Ignored when ``initial_bids`` is given or the player/resource
        shape does not match; when the warm bids still price-converge,
        the loop exits after a single verification round.
    update:
        ``"jacobi"`` — all players re-bid against the same broadcast
        prices (the paper's distributed semantics); ``"gauss-seidel"`` —
        players re-bid sequentially, each seeing the bids of players
        before it in the round.  Jacobi is the default and the one used
        in all experiments.

    A Jacobi round is one ``bidder.optimize_all`` call over every
    player; the default :class:`~repro.core.bidding.HillClimbBidder`
    advances all climbs in lockstep with batched utility evaluations.
    A Gauss–Seidel round calls ``bidder.optimize`` once per player.
    """
    if bidder is None:
        bidder = HillClimbBidder()
    if update not in ("jacobi", "gauss-seidel"):
        raise ValueError(f"unknown update mode {update!r}")

    capacities = market.capacities
    counters_at_entry = EVAL_COUNTERS.snapshot()
    utilities_of = [p.utility for p in market.players]
    evaluator = BatchedUtilitySet(utilities_of)
    last_moves: Optional[np.ndarray] = None
    anchor: Optional[np.ndarray] = None
    warm_started = False
    if initial_bids is not None:
        bids = np.array(initial_bids, dtype=float)
        warm_started = True
    elif warm_start is not None and warm_start.compatible_with(market):
        bids = warm_start.bids_for(market.budgets)
        last_moves = warm_start.last_moves
        anchor = warm_start.anchor_prices
        warm_started = True
    else:
        bids = market.equal_split_bids()
    prices = market.prices(bids)
    price_history: List[np.ndarray] = [prices.copy()]

    converged = False
    iterations = 0
    damped = False
    for iterations in range(1, max_iterations + 1):
        totals = bids.sum(axis=0)
        previous_bids = bids
        # Cold first rounds get no current bids (pristine paper
        # semantics: climb from the equal split at full step); every
        # later round — and every warm-started round — resumes from the
        # player's previous bids with a step sized to its last move.
        resume = warm_started or iterations > 1
        if update == "jacobi":
            bids = bidder.optimize_all(
                utilities_of,
                market.budgets,
                totals[None, :] - bids,
                capacities,
                current_bids=bids if resume else None,
                step_hints=last_moves,
                evaluator=evaluator,
            )
        else:
            # Sequential rounds maintain the per-resource bid totals
            # incrementally (O(N·M) per round) instead of re-summing the
            # whole matrix for every player (O(N²·M)).  The running
            # totals accumulate each player's delta, so they can drift
            # from a fresh column sum by float-rounding dust — the
            # regression test pins the resulting equilibria to the
            # recomputed-sum oracle within 1e-9.
            bids = bids.copy()
            for i, player in enumerate(market.players):
                others = totals - bids[i]
                new_row = bidder.optimize(
                    player.utility,
                    player.budget,
                    others,
                    capacities,
                    current_bids=bids[i] if resume else None,
                    step_hint=None if last_moves is None else float(last_moves[i]),
                )
                totals += new_row - bids[i]
                bids[i] = new_row

        new_prices = market.prices(bids)
        # Simultaneous (Jacobi) best responses can settle into a
        # period-2 price oscillation: everyone overshoots together,
        # then over-corrects.  When the new prices match the prices of
        # two rounds ago but not the last round's, average this round's
        # bids with the previous round's (a convex combination of two
        # budget-feasible bid matrices is budget-feasible), which
        # collapses the cycle onto its midpoint.
        oscillating = (
            len(price_history) >= 2
            and _prices_stable(price_history[-2], new_prices, price_tolerance)
            and not _prices_stable(prices, new_prices, price_tolerance)
        )
        # Drifting cycles can evade the period-2 detector; once the
        # loop has clearly failed to settle on its own, damp every
        # round (averaging is a no-op at a fixed point).
        slow = iterations > 8 and not _prices_stable(prices, new_prices, price_tolerance)
        damped = update == "jacobi" and (oscillating or slow)
        if damped:
            bids = 0.5 * (previous_bids + bids)
            new_prices = market.prices(bids)
        last_moves = np.abs(bids - previous_bids).max(axis=1)
        price_history.append(new_prices.copy())
        if _prices_stable(prices, new_prices, price_tolerance):
            if (
                warm_started
                and iterations == 1
                and anchor is not None
                and not _prices_stable(anchor, new_prices, price_tolerance)
            ):
                # The seed is round-over-round stable, but drift since
                # the last full search has accumulated past the
                # tolerance: refuse the cheap acceptance and re-search
                # with cold-sized steps from the current bids.
                anchor = None
                last_moves = None
                prices = new_prices
                continue
            prices = new_prices
            converged = True
            break
        prices = new_prices

    if _sanitize.ACTIVE:
        _sanitize.check_convergence(converged, price_history, price_tolerance)
    state = market.allocate(bids)
    utilities = market.utilities(state.allocations)
    lambdas = _final_lambdas(
        bids, capacities, bidder, evaluator,
        last_moves=last_moves if iterations > 0 else None, damped=damped,
    )
    return EquilibriumResult(
        state=state,
        utilities=utilities,
        lambdas=lambdas,
        iterations=iterations,
        converged=converged,
        price_history=price_history,
        warm_start=WarmStart(
            bids=bids.copy(),
            budgets=market.budgets,
            prices=prices.copy(),
            last_moves=None if last_moves is None else last_moves.copy(),
            converged=converged,
            # A single verification round keeps the previous anchor; any
            # real (re-)search plants a new one at its own end point.
            anchor_prices=(
                anchor.copy()
                if (warm_started and iterations == 1 and anchor is not None)
                else prices.copy()
            ),
        ),
        warm_started=warm_started,
        eval_counts=EVAL_COUNTERS.since(counters_at_entry),
    )


def _final_lambdas(
    bids: np.ndarray,
    capacities: np.ndarray,
    bidder: BiddingStrategy,
    evaluator: BatchedUtilitySet,
    *,
    last_moves: Optional[np.ndarray],
    damped: bool,
) -> np.ndarray:
    """Per-player ``lambda_i`` at the final bid matrix.

    Needs at most one batched Equation 7 evaluation — and none at all
    when the final round's climbs already evaluated marginals at exactly
    these bids.  That requires the bidder's last call to have covered
    every row with *fresh* Equation 7 marginals (:attr:`last_fresh` of
    length N, all true — never after Gauss–Seidel's one-row calls, and
    never for a bidder that exposes no marginals), no bid to have moved
    in the final round (``last_moves`` all zero, so each climb's
    round-start ``others`` equals the final matrix's), and no
    oscillation damping to have averaged the matrix after the climbs
    ran.  Warm verification rounds — the common case in epoch chains —
    meet all three, so their lambda collection is free.
    """
    fresh = bidder.last_fresh
    reusable = (
        not damped
        and last_moves is not None
        # "no player moved": last_moves entries are non-negative
        # maxima of |bid deltas|, so none-positive means all-zero
        # (spelled without a float equality).
        and not np.any(last_moves > 0.0)
        and fresh is not None
        and fresh.shape == (bids.shape[0],)
        and bool(np.all(fresh))
    )
    if reusable:
        marginals = bidder.last_marginals
    else:
        totals = bids.sum(axis=0)
        marginals = marginal_utility_of_bids_batch(
            bids, totals[None, :] - bids, capacities, evaluator=evaluator
        )
    # Vectorized player_lambda: max marginal over actively-bid
    # resources, falling back to max(marginals, 0) for all-zero rows.
    active = bids > 1e-12
    has_active = active.any(axis=1)
    over_active = np.where(active, marginals, -np.inf).max(axis=1)
    return np.where(
        has_active, over_active, np.maximum(marginals.max(axis=1), 0.0)
    )


def _prices_stable(old: np.ndarray, new: np.ndarray, tolerance: float) -> bool:
    """True when every price moved by less than ``tolerance`` relatively.

    Resources nobody bids on (price 0 in both rounds) count as stable.
    """
    reference = np.maximum(np.abs(old), np.abs(new))
    stable = np.abs(new - old) <= tolerance * np.where(reference > 0.0, reference, 1.0)
    return bool(np.all(stable))
