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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..qa import sanitize as _sanitize
from ..utility.base import EVAL_COUNTERS
from ..utility.batch import BatchedUtilitySet
from .bidding import BiddingStrategy, HillClimbBidder, _seed_bids
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
    player_names, resource_names:
        Names of the problem the search ran on.  A state is only reused
        on the same players over the same resources, so the names catch
        a context switch that keeps the shape; a hand-built state with
        no names matches no market.
    """

    bids: np.ndarray
    budgets: np.ndarray
    prices: np.ndarray
    last_moves: Optional[np.ndarray] = None
    converged: bool = False
    anchor_prices: Optional[np.ndarray] = None
    player_names: Tuple[str, ...] = ()
    resource_names: Tuple[str, ...] = ()

    def compatible_with(self, market: Market) -> bool:
        """True when this state was produced for ``market``'s players and
        resources: the same names, in order, and the same bid shape."""
        problem = market.problem
        return (
            self.player_names == tuple(problem.player_names)
            and self.resource_names == tuple(problem.resource_names)
            and self.bids.shape == (market.num_players, market.num_resources)
        )

    def bids_for(self, budgets: np.ndarray) -> Optional[np.ndarray]:
        """The stored bid matrix rescaled row-wise to new ``budgets``.

        Players whose budget changed keep their *split* but spend the
        new amount (the ReBudget re-seeding idiom); players with no
        usable previous bids (none positive, or a non-finite one) fall
        back to an equal split.  This is the climb's seed rule at any
        total.  Returns ``None`` when the player count does not match.
        """
        budgets = np.asarray(budgets, dtype=float)
        num_players, num_resources = self.bids.shape
        if budgets.shape != (num_players,):
            return None
        return _seed_bids(budgets, self.bids, num_resources, math.inf)[0]


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
        (:meth:`~repro.utility.base.EvalCounters.since` deltas: value
        and gradient dispatches, points covered, plus ``batch_calls`` /
        ``total_calls`` roll-ups).  Benches and profilers read this
        instead of monkeypatching the utility classes.
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
    warm_start:
        End-state of a previous search (``result.warm_start``).  Its
        bids are rescaled to the market's current budgets and each
        player's climb resumes with a step sized to its last move.
        Ignored unless it was produced for the market's players and
        resources (:meth:`WarmStart.compatible_with`); when the
        warm bids still price-converge, the loop exits after a single
        verification round.  Without it every player starts by
        splitting its budget equally (the paper's initialization).
    update:
        ``"jacobi"`` — all players re-bid against the same broadcast
        prices (the paper's distributed semantics); ``"gauss-seidel"`` —
        players re-bid sequentially, each seeing the bids of players
        before it in the round.  Jacobi is the default and the one used
        in all experiments.

    The search uses the market's one compiled
    :class:`~repro.utility.batch.BatchedUtilitySet` (:attr:`Market.evaluator
    <repro.core.market.Market.evaluator>`, shared with every other search
    on the same market), and every round best-responds through
    ``bidder.optimize_all`` on row blocks of it: a Jacobi round is one
    block of every player, a Gauss–Seidel round one one-row block per
    player.  The default :class:`~repro.core.bidding.HillClimbBidder`
    advances a block's climbs in lockstep at one batched gradient
    dispatch per climb iteration (a warm round's staleness probe is its
    first), so a warm verification round costs one dispatch.  Its final
    lambdas cost none: they reuse the Equation 7 marginals the round's
    block call returned, which are at exactly the final bids when the
    round was a Jacobi round that moved no bid and was not damped; any
    other ending costs one batched evaluation.  The final utilities cost
    one batched value dispatch.
    """
    if bidder is None:
        bidder = HillClimbBidder()
    if update not in ("jacobi", "gauss-seidel"):
        raise ValueError(f"unknown update mode {update!r}")

    capacities = market.capacities
    budgets = market.budgets
    everyone = np.arange(market.num_players)
    counters_at_entry = EVAL_COUNTERS.snapshot()
    evaluator = market.evaluator
    last_moves: Optional[np.ndarray] = None
    anchor: Optional[np.ndarray] = None
    warm_started = False
    if warm_start is not None and warm_start.compatible_with(market):
        bids = warm_start.bids_for(budgets)
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
    marginals: Optional[np.ndarray] = None
    for iterations in range(1, max_iterations + 1):
        totals = bids.sum(axis=0)
        previous_bids = bids
        # Cold first rounds get no current bids (pristine paper
        # semantics: climb from the equal split at full step); every
        # later round — and every warm-started round — resumes from the
        # player's previous bids with a step sized to its last move.
        resume = warm_started or iterations > 1
        if update == "jacobi":
            bids, marginals = bidder.optimize_all(
                evaluator,
                everyone,
                budgets,
                totals[None, :] - bids,
                capacities,
                current_bids=bids if resume else None,
                step_hints=last_moves,
            )
        else:
            # Sequential rounds maintain the per-resource bid totals
            # incrementally (O(N·M) per round) instead of re-summing the
            # whole matrix for every player (O(N²·M)).  The running
            # totals accumulate each player's delta, so they can drift
            # from a fresh column sum by float-rounding dust — the
            # regression test pins the resulting equilibria to the
            # recomputed-sum oracle within 1e-9.
            marginals = None
            bids = bids.copy()
            for i in everyone:
                row = everyone[i : i + 1]
                new_row = bidder.optimize_all(
                    evaluator,
                    row,
                    budgets[row],
                    (totals - bids[i])[None, :],
                    capacities,
                    current_bids=bids[row] if resume else None,
                    step_hints=None if last_moves is None else last_moves[row],
                )[0][0]
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
    utilities = evaluator.values(state.allocations)
    # "No bid moved": last_moves entries are non-negative maxima of
    # |bid deltas|, so none-positive means all-zero (spelled without a
    # float equality); only then are the marginals at the final bids.
    if damped or last_moves is None or np.any(last_moves > 0.0):
        marginals = None
    lambdas = _final_lambdas(bids, capacities, evaluator, marginals)
    return EquilibriumResult(
        state=state,
        utilities=utilities,
        lambdas=lambdas,
        iterations=iterations,
        converged=converged,
        price_history=price_history,
        warm_start=WarmStart(
            bids=bids.copy(),
            budgets=budgets,
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
            player_names=tuple(market.problem.player_names),
            resource_names=tuple(market.problem.resource_names),
        ),
        warm_started=warm_started,
        eval_counts=EVAL_COUNTERS.since(counters_at_entry),
    )


def _final_lambdas(
    bids: np.ndarray,
    capacities: np.ndarray,
    evaluator: BatchedUtilitySet,
    marginals: Optional[np.ndarray],
) -> np.ndarray:
    """Per-player ``lambda_i`` at the final bid matrix.

    ``marginals`` are the Equation 7 marginals at exactly ``bids`` when
    the last round's climbs already evaluated them; otherwise one
    batched evaluation derives them.  ``lambda_i`` is the maximum
    marginal over the resources the player bids on — the shared value
    of Equation 4 at an optimum, degrading gracefully away from one —
    or ``max(marginals, 0)`` for a player bidding on nothing.
    """
    if marginals is None:
        totals = bids.sum(axis=0)
        marginals = marginal_utility_of_bids_batch(
            bids, totals[None, :] - bids, capacities, evaluator
        )
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
