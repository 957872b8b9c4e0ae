"""Scalar reference implementations of Fig-4 scoring and the optimum.

* :func:`envy_matrix` / :func:`envy_freeness` — the N² double loop of
  scalar ``value`` calls and the sequential minimum (Definition 3).
* :func:`max_efficiency_allocation` — the lazy greedy plus exchange
  passes that rescan every player on every pass, with every utility
  lookup memoized by the *rounded* float lattice coordinates of its
  point (off-lattice points uncached).

The library's stacked envy scoring and its incremental integer-coordinate
optimum must return exactly these bits; the tests compare against them.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional, Sequence

import numpy as np

from repro.core import GreedyOptimum
from repro.exceptions import MarketConfigurationError
from repro.utility.base import UtilityFunction


def envy_matrix(utilities: Sequence[UtilityFunction], allocations: np.ndarray) -> np.ndarray:
    """``E[i, j] = U_i(r_j)`` by N² scalar evaluations."""
    allocations = np.asarray(allocations, dtype=float)
    n = allocations.shape[0]
    matrix = np.empty((n, n))
    for i, utility in enumerate(utilities):
        for j in range(n):
            matrix[i, j] = utility.value(allocations[j])
    return matrix


def envy_freeness(utilities: Sequence[UtilityFunction], allocations: np.ndarray) -> float:
    """``min_{i,j} U_i(r_i) / U_i(r_j)`` by a sequential scan."""
    matrix = envy_matrix(utilities, allocations)
    own = np.diag(matrix).copy()
    n = matrix.shape[0]
    worst = 1.0  # the i == j pairs contribute exactly 1
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            other = matrix[i, j]
            if other <= 0.0:
                continue
            worst = min(worst, own[i] / other)
    return float(worst)


class _LatticeValueCache:
    """Utility evaluation memoized by rounded lattice coordinates."""

    __slots__ = ("_utility", "_quanta", "_cache")

    def __init__(self, utility: UtilityFunction, quanta: np.ndarray):
        self._utility = utility
        self._quanta = quanta
        self._cache: dict = {}

    def value(self, allocation) -> float:
        coords = np.asarray(allocation, dtype=float) / self._quanta
        rounded = np.rint(coords)
        if coords.size and float(np.max(np.abs(coords - rounded))) > 1e-6:
            return self._utility.value(allocation)
        key = tuple(int(c) for c in rounded)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self._utility.value(allocation)
        return hit


def max_efficiency_allocation(
    utilities: Sequence[UtilityFunction],
    capacities: Sequence[float],
    quanta: Sequence[float],
    per_player_caps: Optional[np.ndarray] = None,
) -> GreedyOptimum:
    """Greedy fill, leftovers, then single-resource and joint exchanges."""
    capacities = np.asarray(capacities, dtype=float)
    quanta = np.asarray(quanta, dtype=float)
    num_players = len(utilities)
    num_resources = capacities.size
    if quanta.size != num_resources:
        raise MarketConfigurationError("need one quantum per resource")
    if np.any(quanta <= 0):
        raise MarketConfigurationError("quanta must be positive")
    if per_player_caps is not None:
        per_player_caps = np.asarray(per_player_caps, dtype=float)
        if per_player_caps.shape != (num_players, num_resources):
            raise MarketConfigurationError("per_player_caps must be (N, M)")

    utilities = [_LatticeValueCache(u, quanta) for u in utilities]
    allocations = np.zeros((num_players, num_resources))
    current = np.zeros(num_players)  # cached U_i(r_i)
    remaining = np.floor(capacities / quanta + 1e-9).astype(int)

    def gain(i: int, j: int) -> float:
        trial = allocations[i].copy()
        trial[j] += quanta[j]
        return utilities[i].value(trial) - current[i]

    def capped(i: int, j: int) -> bool:
        return (
            per_player_caps is not None
            and allocations[i, j] + quanta[j] > per_player_caps[i, j] + 1e-9
        )

    counter = itertools.count()
    heap: list = []
    for i in range(num_players):
        current[i] = utilities[i].value(allocations[i])
        for j in range(num_resources):
            if remaining[j] > 0 and not capped(i, j):
                heapq.heappush(heap, (-gain(i, j), next(counter), i, j))

    steps = 0
    while heap:
        neg_gain, _, i, j = heapq.heappop(heap)
        if remaining[j] <= 0 or capped(i, j):
            continue
        fresh = gain(i, j)
        if fresh <= 0.0:
            continue
        if heap and fresh < -heap[0][0] - 1e-15:
            heapq.heappush(heap, (-fresh, next(counter), i, j))
            continue
        allocations[i, j] += quanta[j]
        current[i] += fresh
        remaining[j] -= 1
        steps += 1
        if remaining[j] > 0 and not capped(i, j):
            heapq.heappush(heap, (-gain(i, j), next(counter), i, j))

    _distribute_leftovers(allocations, remaining, quanta, per_player_caps)
    steps += _exchange_refinement(utilities, allocations, current, quanta, per_player_caps)
    joint_moves = _joint_exchange_pass(
        utilities, allocations, current, quanta, per_player_caps
    )
    if joint_moves:
        steps += joint_moves + _exchange_refinement(
            utilities, allocations, current, quanta, per_player_caps
        )

    final_utilities = np.array(
        [utilities[i].value(allocations[i]) for i in range(num_players)]
    )
    return GreedyOptimum(allocations=allocations, utilities=final_utilities, steps=steps)


def _exchange_refinement(
    utilities, allocations, current, quanta, per_player_caps,
    max_moves: int = 20000, tolerance: float = 1e-12,
) -> int:
    num_players, num_resources = allocations.shape
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        for j in range(num_resources):
            q = quanta[j]
            gains = np.full(num_players, -np.inf)
            losses = np.full(num_players, np.inf)
            for i in range(num_players):
                at_cap = (
                    per_player_caps is not None
                    and allocations[i, j] + q > per_player_caps[i, j] + 1e-9
                )
                if not at_cap:
                    trial = allocations[i].copy()
                    trial[j] += q
                    gains[i] = utilities[i].value(trial) - current[i]
                if allocations[i, j] >= q - 1e-9:
                    trial = allocations[i].copy()
                    trial[j] -= q
                    losses[i] = current[i] - utilities[i].value(trial)
            recipient, donor = _best_exchange_pair(gains, losses)
            if recipient is not None and gains[recipient] - losses[donor] > tolerance:
                allocations[recipient, j] += q
                allocations[donor, j] -= q
                current[recipient] += gains[recipient]
                current[donor] -= losses[donor]
                moves += 1
                improved = True
    return moves


def _joint_exchange_pass(
    utilities, allocations, current, quanta, per_player_caps,
    max_moves: int = 5000, tolerance: float = 1e-12,
) -> int:
    num_players, num_resources = allocations.shape
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        for donor in range(num_players):
            bundle = np.minimum(quanta, allocations[donor])
            if np.all(bundle <= 0.0):
                continue
            donor_after = allocations[donor] - bundle
            loss = current[donor] - utilities[donor].value(donor_after)
            best_gain = 0.0
            best_recipient = None
            for recipient in range(num_players):
                if recipient == donor:
                    continue
                trial = allocations[recipient] + bundle
                if per_player_caps is not None and np.any(
                    trial > per_player_caps[recipient] + 1e-9
                ):
                    continue
                gain = utilities[recipient].value(trial) - current[recipient]
                if gain > best_gain:
                    best_gain = gain
                    best_recipient = recipient
            if best_recipient is not None and best_gain - loss > tolerance:
                allocations[donor] -= bundle
                allocations[best_recipient] += bundle
                current[donor] -= loss
                current[best_recipient] += best_gain
                moves += 1
                improved = True
    return moves


def _best_exchange_pair(gains: np.ndarray, losses: np.ndarray):
    order_gain = np.argsort(gains)[::-1]
    order_loss = np.argsort(losses)
    best = (None, None)
    best_value = -np.inf
    for r in order_gain[:2]:
        for d in order_loss[:2]:
            if r == d or not np.isfinite(gains[r]) or not np.isfinite(losses[d]):
                continue
            value = gains[r] - losses[d]
            if value > best_value:
                best_value = value
                best = (int(r), int(d))
    return best


def _distribute_leftovers(allocations, remaining, quanta, per_player_caps) -> None:
    num_players = allocations.shape[0]
    for j in range(remaining.size):
        i = 0
        guard = remaining[j] * num_players + num_players
        while remaining[j] > 0 and guard > 0:
            guard -= 1
            target = i % num_players
            i += 1
            if (
                per_player_caps is not None
                and allocations[target, j] + quanta[j] > per_player_caps[target, j] + 1e-9
            ):
                continue
            allocations[target, j] += quanta[j]
            remaining[j] -= 1
