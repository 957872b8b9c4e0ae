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
from .rebudget import ReBudgetConfig, ReBudgetLoop, ReBudgetResult

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

#: A plan's request for the problem's shared cold equal-budget solve.
_SHARED_SOLVE = "shared cold equal-budget solve"


@dataclass
class AllocationProblem:
    """An N-player, M-resource divisible allocation instance.

    ``utilities[i]`` maps an allocation vector (in the same order as
    ``resource_names``) to player ``i``'s utility.  In the multicore
    instantiation the vectors are *extra* resources beyond each core's
    free minimum, and the utilities already fold the free minimum in.

    A problem keeps its compiled :attr:`evaluator`, built on first use,
    and :attr:`equal_budget_equilibrium`, which :func:`allocate_all`
    fills.
    """

    utilities: List[UtilityFunction]
    capacities: np.ndarray
    resource_names: Sequence[str]
    player_names: Sequence[str]
    quanta: Optional[np.ndarray] = None
    per_player_caps: Optional[np.ndarray] = None
    #: The cold equilibrium at :data:`DEFAULT_BUDGET` per player, once
    #: :func:`allocate_all` has solved it for a plan that asked; ``None``
    #: before.  It is EqualBudget's cold result and the round 0 of every
    #: cold ReBudget loop on the problem, and its arrays are read-only.
    equal_budget_equilibrium: Optional[EquilibriumResult] = field(
        default=None, init=False, repr=False, compare=False
    )
    _evaluator: Optional[BatchedUtilitySet] = field(
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


#: One equilibrium a plan asks for: ``(market, bidder, warm_start)`` in
#: :func:`find_equilibrium`'s argument order, or :data:`_SHARED_SOLVE`.
_Request = Union[Tuple[Market, Optional[BiddingStrategy], Optional[WarmStart]], str]
#: A market mechanism's work on one problem: it yields one request at a
#: time, receives that request's equilibrium, and returns its result.
_Plan = Generator[_Request, EquilibriumResult, MechanismResult]


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

    A market mechanism also defines ``_plan``, the equilibria it needs
    as a generator of requests, and :func:`allocate_all` runs it; the
    others define :meth:`allocate` alone.
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

    Its plan asks for one equilibrium.  A cold call (no ``warm_state``)
    with the default :class:`~repro.core.bidding.HillClimbBidder` asks
    for the problem's shared cold solve
    (:attr:`~AllocationProblem.equal_budget_equilibrium`), the round 0 of
    every cold ReBudget loop on the same problem; any other bidder, and
    every warm call, asks for its own search from ``warm_state``.
    """

    name = "EqualBudget"

    def __init__(self, bidder: Optional[BiddingStrategy] = None):
        self.bidder = bidder or HillClimbBidder()
        self.warm_state = None

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        return _allocate_alone(self, problem)

    def _plan(self, problem: AllocationProblem) -> _Plan:
        if self.warm_state is None and type(self.bidder) is HillClimbBidder:
            request: _Request = _SHARED_SOLVE
        else:
            market = problem.build_market([DEFAULT_BUDGET] * problem.num_players)
            request = (market, self.bidder, self.warm_state)
        return self._score(problem, (yield request))

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
        # Defined here as well as inherited: perfbench's tracer spans the
        # ``allocate`` each mechanism class defines itself.
        return _allocate_alone(self, problem)

    def _plan(self, problem: AllocationProblem) -> _Plan:
        # The warm bids were computed for the previous call's budgets;
        # the search rescales each row to the fresh ones.
        market = problem.build_market(self._budgets(problem))
        return self._score(problem, (yield market, self.bidder, self.warm_state))

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

    Its plan drives one :class:`~repro.core.rebudget.ReBudgetLoop`,
    asking for one equilibrium per round on the default hill climb.  A
    cold call (no ``warm_state``) asks for the problem's shared cold
    solve (:attr:`~AllocationProblem.equal_budget_equilibrium`) as its
    round 0, so EqualBudget and every ReBudget step on one problem solve
    the equal-budget market once.  A warm call searches its round 0 from
    ``warm_state`` instead.
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
        return _allocate_alone(self, problem)

    def _plan(self, problem: AllocationProblem) -> _Plan:
        market = problem.build_market([self.config.initial_budget] * problem.num_players)
        loop = ReBudgetLoop(market, self.config, self.warm_state)
        if self.warm_state is None and self.config.initial_budget == DEFAULT_BUDGET:
            loop.advance((yield _SHARED_SOLVE))
        while not loop.done:
            loop.advance((yield market, None, loop.warm_start))
        return self._score(problem, market, loop.result)

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
    """Run every mechanism on ``problem``, stacking their markets.

    Yields ``(k, outcome)`` once per mechanism, as ``mechanisms[k]``
    completes: its :class:`MechanismResult`, or the exception its work
    raised.  A market mechanism (EqualBudget, Balanced, ReBudget) is a
    plan (``_plan``) that asks for one equilibrium at a time; its
    ``allocate`` is this driver on a line-up of one, so a line-up's
    outcomes, and the ``warm_state`` each mechanism is left with, are
    bitwise each mechanism's own ``allocate``.

    Each step answers every live plan's request.  Requests on the
    default hill climb, with the problem's shared cold equal-budget
    solve when a plan asks for it and the problem does not hold it yet
    (:attr:`AllocationProblem.equal_budget_equilibrium`, which this
    fills), form one search: :func:`~repro.core.equilibrium.find_equilibria`
    for two or more markets, :func:`find_equilibrium` for one.  A
    request on any other bidder is searched alone.  For the standard
    line-up the first step stacks the shared solve with Balanced, and
    step ``r`` then stacks round ``r`` of both ReBudget loops.

    A failed search fails the plans it serves; an exception inside a
    plan fails that mechanism alone.  Mechanisms without a plan
    (EqualShare, MaxEfficiency, EP, duck-typed ones) run their own
    ``allocate`` after the plans, in line-up order.
    """
    mechanisms = list(mechanisms)
    plans = {k: m._plan(problem) for k, m in enumerate(mechanisms) if hasattr(m, "_plan")}
    answers: Dict[int, object] = dict.fromkeys(plans)
    while answers:
        requests = {}
        for k, answer in answers.items():
            if isinstance(answer, Exception):
                yield k, answer
                continue
            try:
                requests[k] = plans[k].send(answer)
            except StopIteration as finished:
                yield k, finished.value
            except Exception as error:
                yield k, error
        answers = _answer(problem, requests) if requests else {}
    for k, mechanism in enumerate(mechanisms):
        if k not in plans:
            yield k, _attempt(mechanism.allocate, problem)


def _allocate_alone(mechanism: AllocationMechanism, problem: AllocationProblem) -> MechanismResult:
    """``mechanism``'s plan run by :func:`allocate_all` alone; raises
    what its work raised."""
    ((_, outcome),) = allocate_all(problem, [mechanism])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _attempt(work, *args):
    """``work(*args)``, or the exception it raised."""
    try:
        return work(*args)
    except Exception as error:
        return error


def _stacks(request: _Request) -> bool:
    """Whether ``request`` joins its step's one stacked search: the
    shared solve and every request on the default hill climb do."""
    return request is _SHARED_SOLVE or request[1] is None or type(request[1]) is HillClimbBidder


def _answer(
    problem: AllocationProblem, requests: Dict[int, _Request]
) -> Dict[int, Union[EquilibriumResult, Exception]]:
    """Every request's equilibrium, or the exception its search raised."""
    held = problem.equal_budget_equilibrium
    stack: Dict[object, _Request] = {}
    searches = [stack]
    for k, request in requests.items():
        # Every plan that asks for the shared solve reads one job's answer.
        key = _SHARED_SOLVE if request is _SHARED_SOLVE else k
        if key is _SHARED_SOLVE and held is not None:
            continue
        if _stacks(request):
            stack[key] = request
        else:
            searches.append({key: request})
    found: Dict[object, object] = {_SHARED_SOLVE: held}
    for jobs in searches:
        if jobs:
            found.update(_search(problem, jobs))
    return {
        k: found[_SHARED_SOLVE if request is _SHARED_SOLVE else k]
        for k, request in requests.items()
    }


def _search(problem: AllocationProblem, jobs: Dict[object, _Request]) -> Dict[object, object]:
    """Solve ``jobs`` in one search: each key's equilibrium or, when the
    search raised, that exception for every key.

    The :data:`_SHARED_SOLVE` job is the cold equal-budget market on the
    default hill climb; its equilibrium, made read-only, becomes the
    problem's shared solve.
    """
    try:
        searched = [
            (problem.build_market([DEFAULT_BUDGET] * problem.num_players), None, None)
            if job is _SHARED_SOLVE else job
            for job in jobs.values()
        ]
        if len(searched) == 1:
            market, bidder, warm_start = searched[0]
            found = [find_equilibrium(market, bidder=bidder, warm_start=warm_start)]
        else:
            found = find_equilibria([job[0] for job in searched], [job[2] for job in searched])
    except Exception as error:
        return dict.fromkeys(jobs, error)
    outcomes = dict(zip(jobs, found))
    if _SHARED_SOLVE in outcomes:
        problem.equal_budget_equilibrium = _read_only(outcomes[_SHARED_SOLVE])
    return outcomes
