"""Allocation mechanisms compared in the paper's evaluation (Section 6).

Every mechanism consumes an :class:`AllocationProblem` — N players with
concave utilities over M divisible resources — and produces a
:class:`MechanismResult` with the allocation, per-player utilities, and
the efficiency/fairness metrics.  The mechanisms:

* ``EqualShare``      — split every resource evenly (no market).
* ``EqualBudget``     — market equilibrium, identical budgets (XChange).
* ``BalancedBudget``  — XChange's wealth redistribution: budgets
  proportional to each player's normalized performance "potential".
* ``ReBudgetMechanism`` — this paper's contribution (ReBudget-``step``).
* ``MaxEfficiency``   — the infeasible welfare-maximizing reference.
* ``ElasticitiesProportional`` — Zahedi & Lee's Cobb-Douglas EP rule,
  which the paper critiques; included as an extension baseline.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import MarketConfigurationError
from ..qa import sanitize as _sanitize
from ..utility.base import UtilityFunction
from ..utility.batch import BatchedUtilitySet
from .bidding import BiddingStrategy, HillClimbBidder
from .equilibrium import EquilibriumResult, WarmStart, find_equilibria, find_equilibrium
from .market import Market
from .metrics import (
    efficiency as efficiency_metric,
    envy_freeness,
    envy_matrix,
    market_budget_range,
    market_utility_range,
)
from .optimum import max_efficiency_allocation
from .rebudget import ReBudgetConfig, ReBudgetLoop, ReBudgetResult, run_rebudget

__all__ = [
    "DEFAULT_BUDGET",
    "AllocationProblem",
    "MechanismResult",
    "AllocationMechanism",
    "EqualShare",
    "EqualBudget",
    "BalancedBudget",
    "ReBudgetMechanism",
    "MaxEfficiency",
    "ElasticitiesProportional",
    "clamp_to_per_player_caps",
    "standard_mechanism_suite",
    "allocate_all",
]

#: Paper's per-player initial budget in all experiments.
DEFAULT_BUDGET = 100.0

#: Samples per resource axis of the EP rule's Cobb-Douglas fit.
_EP_SAMPLES_PER_RESOURCE = 5


@dataclass
class AllocationProblem:
    """An N-player, M-resource divisible allocation instance.

    ``utilities[i]`` maps an allocation vector (in the same order as
    ``resource_names``) to player ``i``'s utility.  In the multicore
    instantiation the vectors are *extra* resources beyond each core's
    free minimum, and the utilities already fold the free minimum in.

    A problem keeps two things it computes on first use: the compiled
    :attr:`evaluator` and the cold equal-budget equilibrium
    (:attr:`equal_budget_equilibrium`), which EqualBudget and every
    ReBudget loop on the problem share.
    """

    utilities: List[UtilityFunction]
    capacities: np.ndarray
    resource_names: Sequence[str]
    player_names: Sequence[str]
    quanta: Optional[np.ndarray] = None
    per_player_caps: Optional[np.ndarray] = None
    _evaluator: Optional[BatchedUtilitySet] = field(
        default=None, init=False, repr=False, compare=False
    )
    _equal_budget_equilibrium: Optional[EquilibriumResult] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.capacities = np.asarray(self.capacities, dtype=float)
        if len(self.utilities) == 0:
            raise MarketConfigurationError("need at least one player")
        if len(self.player_names) != len(self.utilities):
            raise MarketConfigurationError("one name per player required")
        if len(self.resource_names) != self.capacities.size:
            raise MarketConfigurationError("one name per resource required")
        if not np.all(np.isfinite(self.capacities)) or np.any(self.capacities < 0.0):
            raise MarketConfigurationError("capacities must be finite and non-negative")
        if self.quanta is None:
            # Default optimum-search granularity: 1/256 of each capacity.
            # A zero capacity hands out no quanta, so any positive one
            # will do for it.
            self.quanta = np.where(self.capacities > 0.0, self.capacities / 256.0, 1.0)
        else:
            self.quanta = np.asarray(self.quanta, dtype=float)
        shape = (self.num_players, self.num_resources)
        if self.quanta.shape != shape[1:]:
            raise MarketConfigurationError(f"quanta must have shape {shape[1:]}")
        if self.per_player_caps is not None and np.shape(self.per_player_caps) != shape:
            raise MarketConfigurationError(f"per_player_caps must have shape {shape}")

    @property
    def num_players(self) -> int:
        return len(self.utilities)

    @property
    def num_resources(self) -> int:
        return self.capacities.size

    @property
    def evaluator(self) -> BatchedUtilitySet:
        """The players' utilities compiled into one batched evaluator.

        Compiled on first use and shared by every market
        :meth:`build_market` makes and by the envy scoring of every
        result, so one allocation compiles one plan.
        """
        if self._evaluator is None:
            self._evaluator = BatchedUtilitySet(self.utilities)
        return self._evaluator

    @property
    def equal_budget_equilibrium(self) -> EquilibriumResult:
        """The cold equilibrium at :data:`DEFAULT_BUDGET` per player.

        Solved on first use by the default hill climb from the equal
        split, and kept; :func:`allocate_all` solves it in its first
        stacked search instead, bitwise the same.  The equilibrium depends only on the budgets
        and the utilities, and the climb is deterministic, so this one
        solve is bitwise EqualBudget's cold result and the round 0 of
        every cold ReBudget loop on the problem.  Its arrays are
        read-only: a reader that writes into one fails instead of
        changing another mechanism's result.

        Only the mechanisms read it.  :func:`find_equilibrium` and
        :func:`run_rebudget` called directly still solve for
        themselves, so timing them on a persistent problem times real
        solves.
        """
        if self._equal_budget_equilibrium is None:
            market = self.build_market([DEFAULT_BUDGET] * self.num_players)
            self._equal_budget_equilibrium = _read_only(find_equilibrium(market))
        return self._equal_budget_equilibrium

    def build_market(self, budgets: Sequence[float]) -> Market:
        """A market over this problem with one budget per player."""
        return Market(self, budgets)


def _read_only(equilibrium: EquilibriumResult) -> EquilibriumResult:
    """``equilibrium`` with every array it holds marked read-only."""
    state, warm = equilibrium.state, equilibrium.warm_start
    arrays = [
        state.bids, state.prices, state.allocations,
        equilibrium.utilities, equilibrium.lambdas, *equilibrium.price_history,
        warm.bids, warm.budgets, warm.last_moves, warm.anchor_prices,
    ]
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    return equilibrium


@dataclass
class MechanismResult:
    """Allocation plus the metrics the paper reports for it."""

    mechanism: str
    allocations: np.ndarray
    utilities: np.ndarray
    efficiency: float
    envy_freeness: float
    iterations: int = 0
    converged: bool = True
    budgets: Optional[np.ndarray] = None
    lambdas: Optional[np.ndarray] = None
    mur: Optional[float] = None
    mbr: Optional[float] = None
    details: Dict[str, object] = field(default_factory=dict)


def clamp_to_per_player_caps(
    allocations: np.ndarray, per_player_caps: np.ndarray
) -> np.ndarray:
    """Clamp each player's allocation at its cap, redistributing surplus.

    Surplus freed from capped players is handed to the uncapped ones in
    proportion to their pre-clamp allocations (equally when every
    uncapped player holds zero), iterating per resource until nobody
    exceeds its cap.  Surplus that no player can absorb is left
    unallocated — capacity beyond every cap yields no utility by
    construction of the caps.
    """
    alloc = np.array(allocations, dtype=float)
    caps = np.asarray(per_player_caps, dtype=float)
    if caps.shape != alloc.shape:
        raise MarketConfigurationError(
            f"per-player caps shape {caps.shape} != allocations shape {alloc.shape}"
        )
    num_players, num_resources = alloc.shape
    for j in range(num_resources):
        column = alloc[:, j]
        cap = caps[:, j]
        capped = np.zeros(num_players, dtype=bool)
        for _ in range(num_players):
            over = (column > cap + 1e-12) & ~capped
            if not over.any():
                break
            surplus = float((column[over] - cap[over]).sum())
            column[over] = cap[over]
            capped |= over
            receivers = ~capped
            if not receivers.any() or surplus <= 0.0:
                break
            weights = column[receivers]
            total = float(weights.sum())
            if total > 0.0:
                column[receivers] += surplus * weights / total
            else:
                column[receivers] += surplus / int(receivers.sum())
        alloc[:, j] = column
    return alloc


class AllocationMechanism(abc.ABC):
    """Common interface for all allocation mechanisms.

    Mechanisms that run the market carry the :class:`WarmStart` of
    their last search as ``warm_state``, so consecutive calls on the
    same player/resource set (the simulator's 1 ms epochs) resume from
    the previous equilibrium instead of an equal split.  The search
    reuses it only on the players and resources it was produced for;
    callers that change the underlying problem out from under the
    mechanism — e.g. a context switch — should still call
    :meth:`reset_warm_state`.
    """

    name: str = "mechanism"
    warm_state: Optional[WarmStart] = None

    @abc.abstractmethod
    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        """Solve ``problem`` and return the allocation with its metrics."""

    def reset_warm_state(self) -> None:
        """Drop any carried equilibrium state (e.g. on a context switch)."""
        self.warm_state = None

    def _finish(
        self,
        problem: AllocationProblem,
        allocations: np.ndarray,
        **extra,
    ) -> MechanismResult:
        if problem.per_player_caps is not None:
            allocations = clamp_to_per_player_caps(
                allocations, problem.per_player_caps
            )
        if _sanitize.ACTIVE:
            _sanitize.check_allocation(allocations, problem.capacities)
        matrix = envy_matrix(problem.evaluator, allocations)
        # U_i(r_i), bitwise ``problem.utilities[i].value(allocations[i])``.
        utilities = matrix.diagonal().copy()
        return MechanismResult(
            mechanism=self.name,
            allocations=allocations,
            utilities=utilities,
            efficiency=efficiency_metric(utilities),
            envy_freeness=envy_freeness(problem.evaluator, allocations, matrix=matrix),
            **extra,
        )


class EqualShare(AllocationMechanism):
    """Split every resource evenly across players — the no-market baseline."""

    name = "EqualShare"

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        n = problem.num_players
        allocations = np.tile(problem.capacities / n, (n, 1))
        return self._finish(problem, allocations)


class EqualBudget(AllocationMechanism):
    """Market equilibrium with identical budgets (XChange's default).

    Every call carries its equilibrium bids to the next call on the same
    player/resource set, so the epoch simulator's per-millisecond re-runs
    resume from an almost-correct answer instead of re-searching from an
    equal split.

    A cold call (no ``warm_state``) with the default
    :class:`~repro.core.bidding.HillClimbBidder` returns the problem's
    shared :attr:`~AllocationProblem.equal_budget_equilibrium`, the
    round 0 of every cold ReBudget loop on the same problem; any other
    bidder, and every warm call, solves for itself.
    """

    name = "EqualBudget"

    def __init__(self, bidder: Optional[BiddingStrategy] = None):
        self.bidder = bidder or HillClimbBidder()
        self.warm_state = None

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        if self.warm_state is None and type(self.bidder) is HillClimbBidder:
            return self._score(problem, problem.equal_budget_equilibrium)
        return self._solve(problem, [DEFAULT_BUDGET] * problem.num_players)

    def _solve(
        self, problem: AllocationProblem, budgets: Sequence[float]
    ) -> MechanismResult:
        """Clear the market at ``budgets``, warm-started from the last call.

        The warm bids were computed for the previous call's budgets;
        ``find_equilibrium`` rescales each row to the fresh ones.
        """
        market = problem.build_market(budgets)
        eq = find_equilibrium(market, bidder=self.bidder, warm_start=self.warm_state)
        return self._score(problem, eq)

    def _score(
        self, problem: AllocationProblem, eq: EquilibriumResult
    ) -> MechanismResult:
        """Score ``eq`` and carry its end state to the next call."""
        self.warm_state = eq.warm_start
        budgets = eq.warm_start.budgets
        result = self._finish(
            problem,
            eq.state.allocations,
            iterations=eq.iterations,
            converged=eq.converged,
            budgets=budgets,
            lambdas=eq.lambdas,
            mur=market_utility_range(eq.lambdas),
            mbr=market_budget_range(budgets),
        )
        result.details["prices"] = eq.state.prices.copy()
        return result


class BalancedBudget(EqualBudget):
    """XChange's wealth redistribution (Section 6's "Balanced").

    Each player receives a budget proportional to the utility difference
    between its maximum possible allocation (all per-player caps, or the
    full capacities) and its minimum (nothing beyond the free share),
    normalized to the former.  Budgets are rescaled so the largest equals
    :data:`DEFAULT_BUDGET`, keeping the numbers comparable with
    EqualBudget.
    """

    name = "Balanced"

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        return self._solve(problem, self._budgets(problem))

    @staticmethod
    def _budgets(problem: AllocationProblem) -> np.ndarray:
        """Every player's budget: its normalized potential, scaled."""
        num_players = problem.num_players
        if problem.per_player_caps is not None:
            best = np.minimum(problem.capacities, problem.per_player_caps)
        else:
            best = np.tile(problem.capacities, (num_players, 1))
        # Every player's U at its best point and at zero, in one dispatch.
        values = problem.evaluator.values(
            np.concatenate([best, np.zeros_like(best)]), np.tile(np.arange(num_players), 2)
        )
        u_max, u_min = values[:num_players], values[num_players:]
        potentials = np.divide(
            u_max - u_min, u_max, out=np.zeros(num_players), where=u_max > 0
        )
        top = potentials.max()
        if top <= 0.0:
            budgets = np.full(problem.num_players, DEFAULT_BUDGET)
        else:
            # Keep a small floor so no player is priced out entirely.
            budgets = DEFAULT_BUDGET * np.maximum(potentials / top, 0.05)
        return budgets


class ReBudgetMechanism(AllocationMechanism):
    """The paper's contribution, wrapped as a mechanism.

    ``ReBudgetMechanism(step=20)`` is the paper's ReBudget-20;
    ``ReBudgetMechanism(min_envy_freeness=0.5)`` derives the step and the
    budget floor from Theorem 2 instead.

    A cold call (no ``warm_state``) hands the problem's shared
    :attr:`~AllocationProblem.equal_budget_equilibrium` to
    :func:`run_rebudget` as its round 0, so EqualBudget and every
    ReBudget step on one problem solve the equal-budget market once.
    A warm call starts its round 0 from ``warm_state`` instead.
    """

    def __init__(
        self,
        step: Optional[float] = None,
        min_envy_freeness: Optional[float] = None,
    ):
        self.config = ReBudgetConfig(
            initial_budget=DEFAULT_BUDGET,
            step=step,
            min_envy_freeness=min_envy_freeness,
        )
        self.warm_state = None
        if step is not None:
            self.name = f"ReBudget-{step:g}"
        else:
            self.name = f"ReBudget(EF>={min_envy_freeness:g})"

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        market = self._market(problem)
        rebudget = run_rebudget(
            market,
            self.config,
            warm_start=self.warm_state,
            round0=problem.equal_budget_equilibrium if self.warm_state is None else None,
        )
        return self._score(problem, market, rebudget)

    def _market(self, problem: AllocationProblem) -> Market:
        return problem.build_market([self.config.initial_budget] * problem.num_players)

    def _score(
        self, problem: AllocationProblem, market: Market, rebudget: ReBudgetResult
    ) -> MechanismResult:
        """Score the finished loop and carry its seed to the next call."""
        # Budgets restart from an equal split every epoch, so the right
        # seed for the next epoch is this epoch's *first* (equal-budget)
        # equilibrium, not the post-cut final one.
        self.warm_state = rebudget.rounds[0].equilibrium.warm_start
        eq = rebudget.final_equilibrium
        result = self._finish(
            problem,
            eq.state.allocations,
            iterations=rebudget.total_equilibrium_iterations,
            converged=eq.converged,
            budgets=market.budgets,
            lambdas=eq.lambdas,
            mur=rebudget.mur,
            mbr=rebudget.mbr,
        )
        result.details["rebudget"] = rebudget
        result.details["prices"] = eq.state.prices.copy()
        return result


class MaxEfficiency(AllocationMechanism):
    """Welfare-maximizing reference via fine-grained greedy hill climbing."""

    name = "MaxEfficiency"

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        optimum = max_efficiency_allocation(
            problem.utilities,
            problem.capacities,
            problem.quanta,
            per_player_caps=problem.per_player_caps,
        )
        return self._finish(problem, optimum.allocations, iterations=optimum.steps)


class ElasticitiesProportional(AllocationMechanism):
    """Zahedi & Lee's EP rule on Cobb-Douglas fits (extension baseline).

    Each player's utility is sampled on a small grid and curve-fitted to
    ``U = A * prod_j r_j^{e_j}`` by log-log least squares; resource ``j``
    is then split in proportion to the fitted elasticities ``e_ij``.  The
    paper argues this misallocates when utilities do not fit the
    Cobb-Douglas family — our benchmarks quantify that.  The fit runs
    over the resources with positive capacity only (``log 0`` has no
    fit); a resource with zero capacity gets elasticity 0 and allocates
    nothing.
    """

    name = "EP"

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        elasticities = np.array(
            [
                self._fit_elasticities(u, problem.capacities)
                for u in problem.utilities
            ]
        )
        totals = elasticities.sum(axis=0)
        n = problem.num_players
        shares = np.where(
            totals > 0.0,
            elasticities / np.where(totals > 0.0, totals, 1.0),
            1.0 / n,
        )
        allocations = shares * problem.capacities
        result = self._finish(problem, allocations)
        result.details["elasticities"] = elasticities
        return result

    @staticmethod
    def _fit_elasticities(
        utility: UtilityFunction, capacities: np.ndarray
    ) -> np.ndarray:
        fitted = capacities > 0.0
        m = int(fitted.sum())
        elasticities = np.zeros(capacities.size)
        if m == 0:
            return elasticities
        # Sample away from zero: Cobb-Douglas is degenerate at the origin.
        # Resources without capacity are held at zero in every sample.
        axes = [
            np.linspace(0.1, 1.0, _EP_SAMPLES_PER_RESOURCE) * cap if positive
            else np.zeros(1)
            for cap, positive in zip(capacities, fitted)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([g.ravel() for g in mesh], axis=-1)
        values = utility.value_batch(points)
        mask = values > 1e-12
        if mask.sum() < m + 1:
            elasticities[fitted] = 1.0 / m
            return elasticities
        design = np.column_stack(
            [np.ones(mask.sum()), np.log(points[mask][:, fitted])]
        )
        coeffs, *_ = np.linalg.lstsq(design, np.log(values[mask]), rcond=None)
        elasticities[fitted] = np.maximum(coeffs[1:], 0.0)
        return elasticities


def standard_mechanism_suite() -> List[AllocationMechanism]:
    """The mechanism line-up of Figures 4 and 5."""
    return [
        EqualShare(),
        EqualBudget(),
        BalancedBudget(),
        ReBudgetMechanism(step=20.0),
        ReBudgetMechanism(step=40.0),
        MaxEfficiency(),
    ]


def allocate_all(
    problem: AllocationProblem, mechanisms: Sequence[AllocationMechanism]
) -> Iterator[Tuple[int, Union[MechanismResult, Exception]]]:
    """Run every mechanism on ``problem``, stacking their cold markets.

    Yields ``(k, outcome)`` once per mechanism, as ``mechanisms[k]``
    completes: its :class:`MechanismResult`, bitwise what
    ``mechanisms[k].allocate(problem)`` returns, or the exception its
    work raised.  Every mechanism is left with the ``warm_state`` its
    own ``allocate`` would leave.

    The cold market mechanisms with the default hill climb share
    stacked searches (:func:`~repro.core.equilibrium.find_equilibria`):

    * stack 1 holds the problem's cold equal-budget solve, which it
      fills (:attr:`AllocationProblem.equal_budget_equilibrium`), and
      every cold Balanced solve;
    * then round ``r`` of every cold ReBudget loop is one stacked search.

    Every other mechanism — EqualShare, MaxEfficiency, EP, a warm
    mechanism, a non-default bidder, a subclass or a duck-typed
    mechanism — calls its own ``allocate`` after the stacks.  An
    exception in a stacked search fails every mechanism the search
    serves; one in a mechanism's own work fails that mechanism alone.
    """
    mechanisms = list(mechanisms)
    budgeted = [k for k, mechanism in enumerate(mechanisms) if _stacks_budget(mechanism)]
    looped = [k for k, mechanism in enumerate(mechanisms) if _stacks_loop(mechanism)]
    failure = yield from _stacked_budgets(problem, mechanisms, budgeted, bool(looped))
    if failure is None:
        yield from _stacked_loops(problem, mechanisms, looped)
    else:
        for k in looped:
            yield k, failure
    stacked = set(budgeted + looped)
    for k, mechanism in enumerate(mechanisms):
        if k not in stacked:
            yield k, _attempt(mechanism.allocate, problem)


def _stacks_budget(mechanism: AllocationMechanism) -> bool:
    """A cold EqualBudget or Balanced on the default hill climb."""
    return (
        type(mechanism) in (EqualBudget, BalancedBudget)
        and mechanism.warm_state is None
        and type(mechanism.bidder) is HillClimbBidder
    )


def _stacks_loop(mechanism: AllocationMechanism) -> bool:
    """A cold ReBudget."""
    return type(mechanism) is ReBudgetMechanism and mechanism.warm_state is None


def _attempt(work, *args):
    """``work(*args)``, or the exception it raised."""
    try:
        return work(*args)
    except Exception as error:
        return error


def _stacked_budgets(
    problem: AllocationProblem,
    mechanisms: List[AllocationMechanism],
    budgeted: List[int],
    loops_need_shared: bool,
) -> Generator[Tuple[int, Union[MechanismResult, Exception]], None, Optional[Exception]]:
    """Stack 1: the shared cold equal-budget solve and every cold
    Balanced solve, then the ``budgeted`` mechanisms' results.

    Returns the exception of a failed stack that held the shared solve,
    which every cold ReBudget loop would start from; otherwise ``None``.
    """
    balanced = [k for k in budgeted if type(mechanisms[k]) is BalancedBudget]
    solve_shared = problem._equal_budget_equilibrium is None and (
        loops_need_shared or len(balanced) < len(budgeted)
    )

    def solve() -> List[EquilibriumResult]:
        markets = [problem.build_market(mechanisms[k]._budgets(problem)) for k in balanced]
        if solve_shared:
            markets.insert(0, problem.build_market([DEFAULT_BUDGET] * problem.num_players))
        return find_equilibria(markets, [None] * len(markets))

    equilibria = _attempt(solve)
    if isinstance(equilibria, Exception):
        for k in budgeted:
            yield k, equilibria
        return equilibria if solve_shared else None
    if solve_shared:
        problem._equal_budget_equilibrium = _read_only(equilibria.pop(0))
    own = dict(zip(balanced, equilibria))
    for k in budgeted:
        equilibrium = own[k] if k in own else problem.equal_budget_equilibrium
        yield k, _attempt(mechanisms[k]._score, problem, equilibrium)
    return None


def _start_loop(problem: AllocationProblem, mechanism: ReBudgetMechanism) -> ReBudgetLoop:
    return ReBudgetLoop(
        mechanism._market(problem), mechanism.config, round0=problem.equal_budget_equilibrium
    )


def _stacked_loops(
    problem: AllocationProblem,
    mechanisms: List[AllocationMechanism],
    looped: List[int],
) -> Iterator[Tuple[int, Union[MechanismResult, Exception]]]:
    """Every cold ReBudget loop, round ``r`` of all in one stacked search;
    each mechanism's result as its loop stops."""
    live: List[Tuple[int, ReBudgetLoop]] = []
    for k in looped:
        loop = _attempt(_start_loop, problem, mechanisms[k])
        if isinstance(loop, Exception):
            yield k, loop
        else:
            live.append((k, loop))
    while True:
        for k, loop in live:
            if loop.done:
                yield k, _attempt(mechanisms[k]._score, problem, loop.market, loop.result)
        live = [(k, loop) for k, loop in live if not loop.done]
        if not live:
            return
        equilibria = _attempt(
            find_equilibria,
            [loop.market for _, loop in live],
            [loop.warm_start for _, loop in live],
        )
        if isinstance(equilibria, Exception):
            for k, _ in live:
                yield k, equilibria
            return
        failed = []
        for (k, loop), equilibrium in zip(live, equilibria):
            failure = _attempt(loop.advance, equilibrium)
            if failure is not None:
                failed.append(k)
                yield k, failure
        live = [(k, loop) for k, loop in live if k not in failed]
