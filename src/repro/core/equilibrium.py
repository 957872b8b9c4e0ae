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
budgets and per-player last-move sizes it was produced under —
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import MarketConfigurationError
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
    "find_equilibria",
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
    last_moves:
        Per-player largest single-resource bid change in the final
        round — the natural first-step size for resuming each player's
        hill climb.
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
    last_moves: Optional[np.ndarray] = None
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

    Prices have converged when no price moves by more than
    :data:`PRICE_TOLERANCE` (relatively) in a round; the search gives up
    after :data:`MAX_ITERATIONS` rounds.  Both are the paper's
    constants, read when the search starts.

    The search uses the market's one compiled
    :class:`~repro.utility.batch.BatchedUtilitySet` (:attr:`Market.evaluator
    <repro.core.market.Market.evaluator>`, shared with every other search
    on the same market), and every round best-responds through
    ``bidder.optimize_all`` on row blocks of it: a Jacobi round is one
    block of every player, a Gauss–Seidel round one one-row block per
    player.  The default :class:`~repro.core.bidding.HillClimbBidder`
    advances a block's climbs in lockstep at one marginal request per
    climb iteration (a warm round's staleness probe is its first), so a
    warm verification round costs one request; grid players' requests
    run a compiled Python-float kernel whose cost is per row.  Its final
    lambdas cost none: they reuse the Equation 7 marginals the round's
    block call returned, which are at exactly the final bids when the
    round was a Jacobi round that moved no bid and was not damped; any
    other ending costs one batched evaluation.  The final utilities cost
    one batched value dispatch.

    Jacobi searches solve one row per player class
    (:func:`~repro.utility.batch.player_classes`) when budgets, seed bids
    and step hints are bitwise equal within every class: classmates
    best-respond with one utility to equal budgets and equal others'
    bids, so they stay bitwise equal through every round.  The climbs,
    the final utilities and the lambdas run on the class rows and are
    expanded with a ``take``; totals, prices, damping and last moves
    stay on the full bid matrix, so every sum keeps its order.  When a
    class is split, and under Gauss–Seidel, every player is its own
    class.

    This is the one-market case of :func:`find_equilibria`'s loop.
    """
    if bidder is None:
        bidder = HillClimbBidder()
    if update not in ("jacobi", "gauss-seidel"):
        raise ValueError(f"unknown update mode {update!r}")
    return _lockstep([_Search(market, warm_start, update)], bidder)[0]


def find_equilibria(
    markets: Sequence[Market], warm_starts: Sequence[Optional[WarmStart]]
) -> List[EquilibriumResult]:
    """Solve K markets over one problem in one lockstep search.

    ``markets[k]`` is searched from ``warm_starts[k]`` (``None`` for a
    cold search) with the default hill climb and Jacobi rounds, and
    ``result[k]`` is bitwise what ``find_equilibrium(markets[k],
    warm_start=warm_starts[k])`` returns, except for ``eval_counts``.
    Every round sends the class rows of all live markets through one
    :meth:`HillClimbBidder.optimize_all
    <repro.core.bidding.HillClimbBidder.optimize_all>` call on the
    problem's one evaluator.  Each market keeps its own totals, others'
    bids, prices, convergence test, damping, warm anchor, iteration cap
    and marginal reuse, and leaves the stack once it settles.  A best
    response depends on its own market alone, and the evaluator's row
    ``k`` on row ``k`` alone, so stacking changes no bit.  The climb's
    requests cost per row, so what stacking saves is each round's fixed
    Python cost and the final value and lambda dispatches, shared among
    the markets.

    ``eval_counts`` of a stacked search are the tallies of the whole
    search, the same in each of its K results: one request serves every
    live market, so it belongs to none of them alone.  Sum them once
    per search, not once per result.  With one market they are that
    search's own tallies, as from :func:`find_equilibrium`.

    Once every market has settled, the stacked search pays one final
    value dispatch over the class rows of all K markets, and at most one
    gradient dispatch over the markets whose lambdas cannot reuse their
    last round's marginals, instead of one of each per market.
    """
    markets = list(markets)
    warm_starts = list(warm_starts)
    if len(warm_starts) != len(markets):
        raise ValueError(f"got {len(warm_starts)} warm starts for {len(markets)} markets")
    if any(market.problem is not markets[0].problem for market in markets):
        raise MarketConfigurationError("stacked markets must share one problem")
    searches = [
        _Search(market, warm_start, "jacobi")
        for market, warm_start in zip(markets, warm_starts)
    ]
    return _lockstep(searches, HillClimbBidder())


def _lockstep(searches: List["_Search"], bidder: BiddingStrategy) -> List[EquilibriumResult]:
    """Run ``searches`` (one problem) round by round until each settles."""
    counters_at_entry = EVAL_COUNTERS.snapshot()
    live = searches
    while live:
        if live[0].update == "jacobi":
            _jacobi_round(live, bidder)
        else:
            live[0].gauss_seidel_round(bidder)
        live = [search for search in live if not search.done]
    results = _results(searches)
    counts = EVAL_COUNTERS.since(counters_at_entry)
    for result in results:
        result.eval_counts = dict(counts)
    return results


def _results(searches: List["_Search"]) -> List[EquilibriumResult]:
    """The settled searches' outcomes from one final value dispatch over
    the class rows of every market, and one gradient dispatch over the
    markets whose climb marginals are not at their final bids.

    A row's result depends on that row alone, so each market's share of
    a stacked dispatch is bitwise its own dispatch.
    """
    if not searches:
        return []
    market = searches[0].market
    rows = [search.representatives for search in searches]
    states, marginals = [], []
    for search in searches:
        if _sanitize.ACTIVE:
            _sanitize.check_convergence(search.converged, search.price_history, search.tolerance)
        states.append(search.market.allocate(search.bids))
        marginals.append(search.reusable_marginals())
    utilities = _split(
        market.evaluator.values(
            _stack([state.allocations.take(r, axis=0) for state, r in zip(states, rows)]),
            _stack(rows),
        ),
        rows,
    )
    stale = [k for k, reused in enumerate(marginals) if reused is None]
    if stale:
        class_bids = [searches[k].bids.take(rows[k], axis=0) for k in stale]
        others = [searches[k].bids.sum(axis=0) - bids for k, bids in zip(stale, class_bids)]
        stale_rows = [rows[k] for k in stale]
        fresh = marginal_utility_of_bids_batch(
            _stack(class_bids), _stack(others), market.capacities, market.evaluator,
            _stack(stale_rows),
        )
        for k, part in zip(stale, _split(fresh, stale_rows)):
            marginals[k] = part
    return [
        search.result(state, values, gradients)
        for search, state, values, gradients in zip(searches, states, utilities, marginals)
    ]


def _stack(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``parts`` as one block (one part as it is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _split(block: np.ndarray, rows: Sequence[np.ndarray]) -> List[np.ndarray]:
    """``block`` cut back into parts of ``len(rows[k])`` rows each."""
    parts, start = [], 0
    for r in rows:
        parts.append(block[start:start + r.size])
        start += r.size
    return parts


def _jacobi_round(live: List["_Search"], bidder: BiddingStrategy) -> None:
    """One Jacobi round of every live market in one ``optimize_all`` call.

    With several markets, rows of a cold first round get a NaN seed (no
    seed: the equal split) and rows without a last move a NaN hint (no
    hint), so every row climbs as in its own market's call.  One market's
    block goes to the bidder as it is.
    """
    market = live[0].market
    players, budgets, others, seeds, hints = zip(*(search.block() for search in live))
    sizes = [block.size for block in players]

    def stacked(parts, fill: Optional[Callable[[int], np.ndarray]] = None) -> Optional[np.ndarray]:
        """``parts`` as one block; a ``None`` part becomes ``fill(size)``,
        and all ``None`` stays ``None``."""
        if all(part is None for part in parts):
            return None
        return _stack([fill(size) if part is None else part for part, size in zip(parts, sizes)])

    class_bids, marginals = bidder.optimize_all(
        market.evaluator,
        stacked(players),
        stacked(budgets),
        stacked(others),
        market.capacities,
        current_bids=stacked(seeds, lambda size: np.full((size, market.num_resources), np.nan)),
        step_hints=stacked(hints, lambda size: np.full(size, np.nan)),
    )
    end = 0
    for search, size in zip(live, sizes):
        start, end = end, end + size
        search.settle(
            class_bids[start:end], None if marginals is None else marginals[start:end]
        )


class _Search:
    """One market's state in a lockstep search (see :func:`find_equilibrium`).

    A Jacobi round is :meth:`block` (the class rows the bidder
    best-responds for), the bidder's call, and :meth:`settle` (pricing,
    damping, the convergence test); a Gauss–Seidel market runs alone,
    through :meth:`gauss_seidel_round`.  Once :attr:`done`,
    :func:`_results` evaluates the final rows of every search together
    and :meth:`result` assembles each outcome.
    """

    def __init__(self, market: Market, warm_start: Optional[WarmStart], update: str):
        self.market = market
        self.update = update
        self.tolerance = PRICE_TOLERANCE
        self.max_iterations = MAX_ITERATIONS
        budgets = self.budgets = market.budgets
        everyone = np.arange(market.num_players)
        evaluator = market.evaluator
        self.last_moves: Optional[np.ndarray] = None
        self.anchor: Optional[np.ndarray] = None
        self.warm_started = False
        if warm_start is not None and warm_start.compatible_with(market):
            self.bids = warm_start.bids_for(budgets)
            self.last_moves = warm_start.last_moves
            self.anchor = warm_start.anchor_prices
            self.warm_started = True
        else:
            self.bids = market.equal_split_bids()
        # One row per player class when the class premise holds (see
        # find_equilibrium).
        self.classes = self.representatives = everyone
        if (
            update == "jacobi"
            and evaluator.representatives.size < everyone.size
            and evaluator.classwise_constant(budgets)
            and evaluator.classwise_constant(self.bids)
            and (self.last_moves is None or evaluator.classwise_constant(self.last_moves))
        ):
            self.classes = evaluator.classes
            self.representatives = evaluator.representatives
        self.class_budgets = budgets.take(self.representatives)
        self.prices = market.prices(self.bids)
        self.price_history: List[np.ndarray] = [self.prices.copy()]
        self.previous_bids = self.bids
        self.converged = False
        self.iterations = 0
        self.damped = False
        self.marginals: Optional[np.ndarray] = None
        self.done = False

    def _begin(self) -> Tuple[np.ndarray, bool]:
        """Open a round: its starting totals, and whether climbs resume.

        Cold first rounds get no current bids (pristine paper semantics:
        climb from the equal split at full step); every later round —
        and every warm-started round — resumes from the player's
        previous bids with a step sized to its last move.
        """
        self.iterations += 1
        self.previous_bids = self.bids
        return self.bids.sum(axis=0), self.warm_started or self.iterations > 1

    def block(self) -> tuple:
        """Open a Jacobi round and return its class-row block:
        ``(players, budgets, others, current_bids, step_hints)``."""
        totals, resume = self._begin()
        representatives = self.representatives
        class_bids = self.bids.take(representatives, axis=0)
        return (
            representatives,
            self.class_budgets,
            totals[None, :] - class_bids,
            class_bids if resume else None,
            None if self.last_moves is None else self.last_moves.take(representatives),
        )

    def gauss_seidel_round(self, bidder: BiddingStrategy) -> None:
        """One Gauss–Seidel round: players re-bid one after another.

        Sequential rounds maintain the per-resource bid totals
        incrementally (O(N·M) per round) instead of re-summing the whole
        matrix for every player (O(N²·M)).  The running totals
        accumulate each player's delta, so they can drift from a fresh
        column sum by float-rounding dust — the regression test pins the
        resulting equilibria to the recomputed-sum oracle within 1e-9.
        """
        evaluator, capacities = self.market.evaluator, self.market.capacities
        totals, resume = self._begin()
        budgets, last_moves = self.budgets, self.last_moves
        bids = self.bids.copy()
        everyone = self.representatives
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
        self._close(bids, None)

    def settle(self, class_bids: np.ndarray, marginals: Optional[np.ndarray]) -> None:
        """Close a Jacobi round on the bidder's class-row bids and marginals."""
        self._close(class_bids.take(self.classes, axis=0), marginals)

    def _close(self, bids: np.ndarray, marginals: Optional[np.ndarray]) -> None:
        market, tolerance, prices = self.market, self.tolerance, self.prices
        previous_bids = self.previous_bids
        new_prices = market.prices(bids)
        # Simultaneous (Jacobi) best responses can settle into a
        # period-2 price oscillation: everyone overshoots together,
        # then over-corrects.  When the new prices match the prices of
        # two rounds ago but not the last round's, average this round's
        # bids with the previous round's (a convex combination of two
        # budget-feasible bid matrices is budget-feasible), which
        # collapses the cycle onto its midpoint.
        stable = _prices_stable(prices, new_prices, tolerance)
        oscillating = (
            not stable
            and len(self.price_history) >= 2
            and _prices_stable(self.price_history[-2], new_prices, tolerance)
        )
        # Drifting cycles can evade the period-2 detector; once the
        # loop has clearly failed to settle on its own, damp every
        # round (averaging is a no-op at a fixed point).
        slow = self.iterations > 8 and not stable
        self.damped = self.update == "jacobi" and (oscillating or slow)
        if self.damped:
            bids = 0.5 * (previous_bids + bids)
            new_prices = market.prices(bids)
            stable = _prices_stable(prices, new_prices, tolerance)
        self.bids = bids
        self.marginals = marginals
        self.last_moves = np.abs(bids - previous_bids).max(axis=1)
        self.price_history.append(new_prices.copy())
        if stable:
            if (
                self.warm_started
                and self.iterations == 1
                and self.anchor is not None
                and not _prices_stable(self.anchor, new_prices, tolerance)
            ):
                # The seed is round-over-round stable, but drift since
                # the last full search has accumulated past the
                # tolerance: refuse the cheap acceptance and re-search
                # with cold-sized steps from the current bids.
                self.anchor = None
                self.last_moves = None
            else:
                self.converged = True
        self.prices = new_prices
        self.done = self.converged or self.iterations >= self.max_iterations

    def reusable_marginals(self) -> Optional[np.ndarray]:
        """The last round's class-row marginals when they are at exactly
        the final bids, else ``None``.

        "No bid moved": last_moves entries are non-negative maxima of
        |bid deltas|, so none-positive means all-zero (spelled without a
        float equality); only then, and only when the bidder evaluated
        every row there, are the marginals at the final bids.
        """
        marginals, last_moves = self.marginals, self.last_moves
        if (
            self.damped
            or last_moves is None
            or np.any(last_moves > 0.0)
            or marginals is None
            or np.isnan(marginals).any()
        ):
            return None
        return marginals

    def result(
        self, state: MarketState, class_utilities: np.ndarray, marginals: np.ndarray
    ) -> EquilibriumResult:
        """The settled search's outcome from its final clearing and the
        class rows' utilities and marginals there (``eval_counts`` left
        to the caller)."""
        market, bids, classes = self.market, self.bids, self.classes
        last_moves, anchor = self.last_moves, self.anchor
        utilities = class_utilities.take(classes)
        lambdas = _final_lambdas(
            bids, market.capacities, market.evaluator, marginals, self.representatives
        ).take(classes)
        verified = self.warm_started and self.iterations == 1 and anchor is not None
        return EquilibriumResult(
            state=state,
            utilities=utilities,
            lambdas=lambdas,
            iterations=self.iterations,
            converged=self.converged,
            price_history=self.price_history,
            warm_start=WarmStart(
                bids=bids.copy(),
                budgets=self.budgets,
                last_moves=None if last_moves is None else last_moves.copy(),
                # A single verification round keeps the previous anchor;
                # any real (re-)search plants a new one at its own end
                # point.
                anchor_prices=anchor.copy() if verified else self.prices.copy(),
                player_names=tuple(market.problem.player_names),
                resource_names=tuple(market.problem.resource_names),
            ),
            warm_started=self.warm_started,
        )


def _final_lambdas(
    bids: np.ndarray,
    capacities: np.ndarray,
    evaluator: BatchedUtilitySet,
    marginals: Optional[np.ndarray],
    representatives: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``lambda_i`` of every player in ``representatives`` (default:
    every player) at the final bids.

    ``bids`` is the full ``(N, M)`` matrix.  ``marginals`` are the
    Equation 7 marginals of the ``representatives`` rows at exactly
    ``bids`` when the last round's climbs already evaluated them;
    otherwise one batched evaluation derives them.  ``lambda_i`` is the
    maximum marginal over the resources the player bids on — the shared
    value of Equation 4 at an optimum, degrading gracefully away from
    one — or ``max(marginals, 0)`` for a player bidding on nothing.
    """
    if representatives is None:
        representatives = np.arange(bids.shape[0])
    class_bids = bids.take(representatives, axis=0)
    if marginals is None:
        totals = bids.sum(axis=0)
        marginals = marginal_utility_of_bids_batch(
            class_bids, totals[None, :] - class_bids, capacities, evaluator,
            representatives,
        )
    active = class_bids > 1e-12
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
    return bool(stable.all())
