"""Efficiency and fairness metrics (Sections 2.2, 2.3, and 3).

* efficiency / weighted speedup (Definition 1, Equation 5)
* envy-freeness (Definition 3) and c-approximate envy-freeness
* Price of Anarchy (Definition 2) given an optimal reference
* Market Utility Range, MUR (Definition 5)
* Market Budget Range, MBR (Definition 6)
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..exceptions import MarketConfigurationError
from ..qa import sanitize as _sanitize
from ..utility.base import UtilityFunction
from ..utility.batch import BatchedUtilitySet

__all__ = [
    "efficiency",
    "envy_freeness",
    "envy_matrix",
    "price_of_anarchy",
    "market_utility_range",
    "market_budget_range",
]


def efficiency(utilities: Sequence[float]) -> float:
    """System efficiency: the sum of player utilities (Definition 1).

    With utilities normalized to standalone IPC this is exactly the
    weighted-speedup throughput metric (Equation 5).
    """
    return float(np.sum(np.asarray(utilities, dtype=float)))


#: The players' utilities, as a list or already compiled.
_Utilities = Union[Sequence[UtilityFunction], BatchedUtilitySet]


def envy_matrix(utilities: _Utilities, allocations: np.ndarray) -> np.ndarray:
    """``E[i, j] = U_i(r_j)``: what player i's utility would be with j's bundle.

    ``allocations`` needs one row per utility.  Players of one class
    (:func:`~repro.utility.batch.player_classes`) hold one utility, so
    their rows of the matrix are equal, and players of one class holding
    bitwise-equal bundles (a market's allocation) give equal columns.
    One row per class is scored against one column per class then, and
    against every bundle otherwise (MaxEfficiency's), in one
    :meth:`BatchedUtilitySet.values` call that mirrors ``value`` bit for
    bit; both axes are then expanded to every player.  An already
    compiled ``utilities`` (a problem's
    :attr:`~repro.core.mechanisms.AllocationProblem.evaluator`) is used
    as it is.
    """
    allocations = np.asarray(allocations, dtype=float)
    compiled = isinstance(utilities, BatchedUtilitySet)
    n = len(utilities.utilities if compiled else utilities)
    if allocations.ndim != 2 or allocations.shape[0] != n:
        raise MarketConfigurationError(
            f"envy scoring needs one row per utility ({n}), "
            f"got allocations of shape {allocations.shape}"
        )
    if n == 0:
        return np.empty((0, 0))
    evaluator = utilities if compiled else BatchedUtilitySet(utilities)
    classes, representatives = evaluator.classes, evaluator.representatives
    if evaluator.classwise_constant(allocations):
        bundles, column_of = representatives, classes
    else:
        bundles = column_of = np.arange(n)
    players = np.repeat(representatives, bundles.size)
    pairs = np.tile(allocations.take(bundles, axis=0), (representatives.size, 1))
    matrix = evaluator.values(pairs, players).reshape(representatives.size, bundles.size)
    return matrix.take(classes, axis=0).take(column_of, axis=1)


def envy_freeness(
    utilities: _Utilities,
    allocations: np.ndarray,
    matrix: Optional[np.ndarray] = None,
) -> float:
    """Envy-freeness of an allocation (Definition 3).

    ``EF = min_{i,j} U_i(r_i) / U_i(r_j)``.  The minimum ranges over all
    ordered pairs including ``i == j``, so ``EF <= 1`` always and
    ``EF == 1`` means the allocation is envy-free.  Conventions for
    degenerate values: if a player values some other bundle positively
    but its own at zero, the ratio is 0; pairs where the other bundle is
    valued at zero impose no constraint (nobody envies a worthless
    bundle).  A non-finite utility anywhere in the envy matrix raises
    :class:`MarketConfigurationError` naming the player, since no ratio
    involving it means anything.  A caller that already holds
    ``envy_matrix(utilities, allocations)`` passes it as ``matrix``, and
    it is not scored again.
    """
    if matrix is None:
        matrix = envy_matrix(utilities, allocations)
    finite = np.isfinite(matrix)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise MarketConfigurationError(
            f"player {i}'s utility is {matrix[i, j]} on player {j}'s bundle; "
            "envy-freeness needs finite utilities"
        )
    # Ratios of the constrained pairs in row-major (i, j) order; the
    # first occurrence of the minimum is kept, as a sequential scan
    # would, so a signed-zero tie resolves the same way.
    pairs = (matrix > 0.0) & ~np.eye(matrix.shape[0], dtype=bool)
    own = np.broadcast_to(np.diag(matrix)[:, None], matrix.shape)
    ratios = own[pairs] / matrix[pairs]
    worst = 1.0  # the i == j pairs contribute exactly 1
    if ratios.size:
        worst = min(worst, ratios[np.argmin(ratios)])
    return float(worst)


def price_of_anarchy(equilibrium_efficiency: float, optimal_efficiency: float) -> float:
    """Realized efficiency ratio ``Nash / OPT`` (cf. Definition 2).

    Definition 2's PoA is the worst case over all equilibria; with a
    single computed equilibrium this returns the realized ratio, which
    upper-bounds the true PoA and must respect Theorem 1's lower bound.
    """
    if optimal_efficiency <= 0.0:
        return 1.0
    return float(equilibrium_efficiency / optimal_efficiency)


def market_utility_range(lambdas: Sequence[float]) -> float:
    """MUR: ``min_i lambda_i / max_i lambda_i`` (Definition 5).

    Degenerate markets where every player's marginal utility of money is
    zero (everyone saturated) have nothing to gain from budget movement,
    so we report MUR = 1.  Monitored (noisy) utilities can yield a
    negative lambda estimate, which would push the raw ratio below 0 and
    outside Theorem 1's domain; the result is clamped to [0, 1] so
    downstream bound checks (``poa_lower_bound``) stay applicable.
    """
    values = np.asarray(lambdas, dtype=float)
    top = float(values.max(initial=0.0))
    if top <= 0.0:
        return 1.0
    result = float(min(max(float(values.min()) / top, 0.0), 1.0))
    if _sanitize.ACTIVE:
        _sanitize.check_unit_interval("MUR", result)
    return result


def market_budget_range(budgets: Sequence[float]) -> float:
    """MBR: ``min_i B_i / max_i B_i`` (Definition 6).

    Clamped to [0, 1] symmetrically with :func:`market_utility_range`
    so a pathological negative budget can never escape Theorem 2's
    domain (``ef_lower_bound``).
    """
    values = np.asarray(budgets, dtype=float)
    top = float(values.max(initial=0.0))
    if top <= 0.0:
        return 1.0
    result = float(min(max(float(values.min()) / top, 0.0), 1.0))
    if _sanitize.ACTIVE:
        _sanitize.check_unit_interval("MBR", result)
    return result
