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
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from ..qa import sanitize as _sanitize
from ..utility.base import UtilityFunction
from .bidding import BiddingStrategy, HillClimbBidder
from .equilibrium import EquilibriumResult, WarmStart, find_equilibrium
from .market import Market
from .metrics import (
    efficiency as efficiency_metric,
    envy_freeness,
    market_budget_range,
    market_utility_range,
)
from .optimum import max_efficiency_allocation
from .player import Player
from .rebudget import ReBudgetConfig, ReBudgetResult, run_rebudget
from .resources import Resource, ResourceSet

__all__ = [
    "DEFAULT_BUDGET",
    "AllocationProblem",
    "MechanismResult",
    "MechanismWarmState",
    "AllocationMechanism",
    "EqualShare",
    "EqualBudget",
    "BalancedBudget",
    "ReBudgetMechanism",
    "MaxEfficiency",
    "ElasticitiesProportional",
    "clamp_to_per_player_caps",
    "standard_mechanism_suite",
]

#: Paper's per-player initial budget in all experiments.
DEFAULT_BUDGET = 100.0


@dataclass
class AllocationProblem:
    """An N-player, M-resource divisible allocation instance.

    ``utilities[i]`` maps an allocation vector (in the same order as
    ``resource_names``) to player ``i``'s utility.  In the multicore
    instantiation the vectors are *extra* resources beyond each core's
    free minimum, and the utilities already fold the free minimum in.
    """

    utilities: List[UtilityFunction]
    capacities: np.ndarray
    resource_names: Sequence[str]
    player_names: Sequence[str]
    quanta: Optional[np.ndarray] = None
    per_player_caps: Optional[np.ndarray] = None

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
            self.quanta = self.capacities / 256.0
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

    def build_market(self, budgets: Sequence[float]) -> Market:
        resources = ResourceSet.of(
            *[
                Resource(name=name, capacity=cap)
                for name, cap in zip(self.resource_names, self.capacities)
            ]
        )
        players = [
            Player(name, utility, budget)
            for name, utility, budget in zip(self.player_names, self.utilities, budgets)
        ]
        return Market(resources, players)


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


@dataclass
class MechanismWarmState:
    """Epoch-to-epoch state a stateful mechanism carries between calls.

    The warm start is only reusable when the next problem has the same
    players over the same resources; the names double as a cheap
    identity check that catches context switches even if the caller
    forgets to invalidate.
    """

    warm_start: WarmStart
    player_names: tuple
    resource_names: tuple

    def matches(self, problem: "AllocationProblem") -> bool:
        return (
            tuple(self.player_names) == tuple(problem.player_names)
            and tuple(self.resource_names) == tuple(problem.resource_names)
            and self.warm_start.bids.shape
            == (problem.num_players, problem.num_resources)
        )


class AllocationMechanism(abc.ABC):
    """Common interface for all allocation mechanisms.

    Mechanisms that run the market carry an optional persistent
    ``warm_state`` so consecutive calls on the same player/resource set
    (the simulator's 1 ms epochs) resume from the previous equilibrium
    instead of an equal split.  Callers that change the underlying
    problem out from under the mechanism — e.g. a context switch — must
    call :meth:`reset_warm_state`.
    """

    name: str = "mechanism"
    warm_state: Optional[MechanismWarmState] = None

    @abc.abstractmethod
    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        """Solve ``problem`` and return the allocation with its metrics."""

    def reset_warm_state(self) -> None:
        """Drop any carried equilibrium state (e.g. on a context switch)."""
        self.warm_state = None

    def _warm_start_for(self, problem: AllocationProblem) -> Optional[WarmStart]:
        state = self.warm_state
        if state is None or not state.matches(problem):
            return None
        return state.warm_start

    def _store_warm_state(
        self, problem: AllocationProblem, warm_start: Optional[WarmStart]
    ) -> None:
        if warm_start is None:
            return
        self.warm_state = MechanismWarmState(
            warm_start=warm_start,
            player_names=tuple(problem.player_names),
            resource_names=tuple(problem.resource_names),
        )

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
        utilities = np.array(
            [u.value(allocations[i]) for i, u in enumerate(problem.utilities)]
        )
        return MechanismResult(
            mechanism=self.name,
            allocations=allocations,
            utilities=utilities,
            efficiency=efficiency_metric(utilities),
            envy_freeness=envy_freeness(problem.utilities, allocations),
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

    ``warm=True`` (the default) carries the previous call's equilibrium
    bids across calls on the same player/resource set, so the epoch
    simulator's per-millisecond re-runs resume from an almost-correct
    answer instead of re-searching from an equal split.
    """

    name = "EqualBudget"

    def __init__(
        self,
        budget: float = DEFAULT_BUDGET,
        bidder: Optional[BiddingStrategy] = None,
        warm: bool = True,
    ):
        self.budget = budget
        self.bidder = bidder or HillClimbBidder()
        self.warm = warm
        self.warm_state = None

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        market = problem.build_market([self.budget] * problem.num_players)
        eq = find_equilibrium(
            market,
            bidder=self.bidder,
            warm_start=self._warm_start_for(problem) if self.warm else None,
        )
        if self.warm:
            self._store_warm_state(problem, eq.warm_start)
        return self._result_from_equilibrium(problem, market, eq)

    def _result_from_equilibrium(
        self, problem: AllocationProblem, market: Market, eq: EquilibriumResult
    ) -> MechanismResult:
        result = self._finish(
            problem,
            eq.state.allocations,
            iterations=eq.iterations,
            converged=eq.converged,
            budgets=market.budgets,
            lambdas=eq.lambdas,
            mur=market_utility_range(eq.lambdas),
            mbr=market_budget_range(market.budgets),
        )
        result.details["prices"] = eq.state.prices.copy()
        return result


class BalancedBudget(EqualBudget):
    """XChange's wealth redistribution (Section 6's "Balanced").

    Each player receives a budget proportional to the utility difference
    between its maximum possible allocation (all per-player caps, or the
    full capacities) and its minimum (nothing beyond the free share),
    normalized to the former.  Budgets are rescaled so the largest equals
    ``budget``, keeping the numbers comparable with EqualBudget.
    """

    name = "Balanced"

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        potentials = np.empty(problem.num_players)
        for i, utility in enumerate(problem.utilities):
            if problem.per_player_caps is not None:
                best = np.minimum(problem.capacities, problem.per_player_caps[i])
            else:
                best = problem.capacities
            u_max = utility.value(best)
            u_min = utility.value(np.zeros(problem.num_resources))
            potentials[i] = (u_max - u_min) / u_max if u_max > 0 else 0.0
        top = potentials.max()
        if top <= 0.0:
            budgets = np.full(problem.num_players, self.budget)
        else:
            # Keep a small floor so no player is priced out entirely.
            budgets = self.budget * np.maximum(potentials / top, 0.05)
        market = problem.build_market(budgets)
        # The warm bids were computed for the previous epoch's budgets;
        # find_equilibrium rescales each row to the fresh ones.
        eq = find_equilibrium(
            market,
            bidder=self.bidder,
            warm_start=self._warm_start_for(problem) if self.warm else None,
        )
        if self.warm:
            self._store_warm_state(problem, eq.warm_start)
        return self._result_from_equilibrium(problem, market, eq)


class ReBudgetMechanism(AllocationMechanism):
    """The paper's contribution, wrapped as a mechanism.

    ``ReBudgetMechanism(step=20)`` is the paper's ReBudget-20;
    ``ReBudgetMechanism(min_envy_freeness=0.5)`` derives the step and the
    budget floor from Theorem 2 instead.
    """

    def __init__(
        self,
        step: Optional[float] = None,
        min_envy_freeness: Optional[float] = None,
        budget: float = DEFAULT_BUDGET,
        bidder: Optional[BiddingStrategy] = None,
        lambda_threshold: float = 0.5,
        warm: bool = True,
    ):
        self.config = ReBudgetConfig(
            initial_budget=budget,
            step=step,
            min_envy_freeness=min_envy_freeness,
            lambda_threshold=lambda_threshold,
        )
        self.bidder = bidder or HillClimbBidder()
        self.warm = warm
        self.warm_state = None
        if step is not None:
            self.name = f"ReBudget-{step:g}"
        else:
            self.name = f"ReBudget(EF>={min_envy_freeness:g})"

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        market = problem.build_market(
            [self.config.initial_budget] * problem.num_players
        )
        rebudget: ReBudgetResult = run_rebudget(
            market,
            self.config,
            bidder=self.bidder,
            warm_start=self._warm_start_for(problem) if self.warm else None,
        )
        if self.warm:
            # Budgets restart from an equal split every epoch, so the
            # right seed for the next epoch is this epoch's *first*
            # (equal-budget) equilibrium, not the post-cut final one.
            self._store_warm_state(problem, rebudget.rounds[0].equilibrium.warm_start)
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
    Cobb-Douglas family — our benchmarks quantify that.
    """

    name = "EP"

    def __init__(self, samples_per_resource: int = 5):
        self.samples_per_resource = samples_per_resource

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

    def _fit_elasticities(
        self, utility: UtilityFunction, capacities: np.ndarray
    ) -> np.ndarray:
        m = capacities.size
        # Sample away from zero: Cobb-Douglas is degenerate at the origin.
        axes = [
            np.linspace(0.1, 1.0, self.samples_per_resource) * cap
            for cap in capacities
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([g.ravel() for g in mesh], axis=-1)
        values = np.array([utility.value(p) for p in points])
        mask = values > 1e-12
        if mask.sum() < m + 1:
            return np.full(m, 1.0 / m)
        design = np.column_stack([np.ones(mask.sum()), np.log(points[mask])])
        coeffs, *_ = np.linalg.lstsq(design, np.log(values[mask]), rcond=None)
        return np.maximum(coeffs[1:], 0.0)


def standard_mechanism_suite(
    rebudget_steps: Sequence[float] = (20.0, 40.0),
) -> List[AllocationMechanism]:
    """The mechanism line-up of Figures 4 and 5."""
    suite: List[AllocationMechanism] = [
        EqualShare(),
        EqualBudget(),
        BalancedBudget(),
    ]
    suite.extend(ReBudgetMechanism(step=s) for s in rebudget_steps)
    suite.append(MaxEfficiency())
    return suite
