"""Scalar reference implementations of Fig-4 scoring and the optimum.

* :func:`envy_matrix` / :func:`envy_freeness` — the N² double loop of
  scalar ``value`` calls and the sequential minimum (Definition 3).
* :func:`max_efficiency_allocation` — the lazy greedy plus exchange
  passes that rescan every player on every pass, on integer lattice
  coordinates: a player holding ``coords`` quanta is at the point
  ``coords × quanta``, evaluated by a scalar ``value`` call, and may step
  to ``c + 1`` quanta of a resource while ``(c + 1) × quantum <= cap +
  1e-9``.

The library's stacked envy scoring and its incremental optimum on shared
value tables must return exactly these bits; the tests compare against
them.
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


class _LatticeUtilities:
    """``U_i(coords × quanta)`` by scalar ``value`` calls, cached by coordinates."""

    __slots__ = ("_utilities", "_quanta", "_cache")

    def __init__(self, utilities: Sequence[UtilityFunction], quanta: np.ndarray):
        self._utilities = utilities
        self._quanta = quanta
        self._cache: dict = {}

    def value(self, i: int, coords: np.ndarray) -> float:
        key = (i, tuple(coords.tolist()))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self._utilities[i].value(coords * self._quanta)
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

    lattice = _LatticeUtilities(utilities, quanta)
    coords = np.zeros((num_players, num_resources), dtype=int)
    current = np.zeros(num_players)  # running U_i(coords_i × quanta)
    remaining = np.floor(capacities / quanta + 1e-9).astype(int)

    def within_caps(i: int, trial: np.ndarray) -> bool:
        return per_player_caps is None or bool(
            np.all(trial * quanta <= per_player_caps[i] + 1e-9)
        )

    def step(i: int, j: int, sign: int) -> np.ndarray:
        trial = coords[i].copy()
        trial[j] += sign
        return trial

    def gain(i: int, j: int) -> float:
        return lattice.value(i, step(i, j, 1)) - current[i]

    def capped(i: int, j: int) -> bool:
        return not within_caps(i, step(i, j, 1))

    counter = itertools.count()
    heap: list = []
    for i in range(num_players):
        current[i] = lattice.value(i, coords[i])
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
        coords[i, j] += 1
        current[i] += fresh
        remaining[j] -= 1
        steps += 1
        if remaining[j] > 0 and not capped(i, j):
            heapq.heappush(heap, (-gain(i, j), next(counter), i, j))

    for j in range(num_resources):
        i = 0
        guard = remaining[j] * num_players + num_players
        while remaining[j] > 0 and guard > 0:
            guard -= 1
            target = i % num_players
            i += 1
            if capped(target, j):
                continue
            coords[target, j] += 1
            remaining[j] -= 1

    def exchange_refinement(max_moves: int = 20000, tolerance: float = 1e-12) -> int:
        moves = 0
        improved = True
        while improved and moves < max_moves:
            improved = False
            for j in range(num_resources):
                gains = np.full(num_players, -np.inf)
                losses = np.full(num_players, np.inf)
                for i in range(num_players):
                    if not capped(i, j):
                        gains[i] = lattice.value(i, step(i, j, 1)) - current[i]
                    if coords[i, j] > 0:
                        losses[i] = current[i] - lattice.value(i, step(i, j, -1))
                recipient, donor = _best_exchange_pair(gains, losses)
                if recipient is not None and gains[recipient] - losses[donor] > tolerance:
                    coords[recipient, j] += 1
                    coords[donor, j] -= 1
                    current[recipient] += gains[recipient]
                    current[donor] -= losses[donor]
                    moves += 1
                    improved = True
        return moves

    def joint_exchange_pass(max_moves: int = 5000, tolerance: float = 1e-12) -> int:
        moves = 0
        improved = True
        while improved and moves < max_moves:
            improved = False
            for donor in range(num_players):
                # One quantum of every resource the donor holds any of.
                bundle = (coords[donor] > 0).astype(int)
                if not bundle.any():
                    continue
                loss = current[donor] - lattice.value(donor, coords[donor] - bundle)
                best_gain = 0.0
                best_recipient = None
                for recipient in range(num_players):
                    if recipient == donor:
                        continue
                    trial = coords[recipient] + bundle
                    if not within_caps(recipient, trial):
                        continue
                    gain = lattice.value(recipient, trial) - current[recipient]
                    if gain > best_gain:
                        best_gain = gain
                        best_recipient = recipient
                if best_recipient is not None and best_gain - loss > tolerance:
                    coords[donor] -= bundle
                    coords[best_recipient] += bundle
                    current[donor] -= loss
                    current[best_recipient] += best_gain
                    moves += 1
                    improved = True
        return moves

    steps += exchange_refinement()
    joint_moves = joint_exchange_pass()
    if joint_moves:
        steps += joint_moves + exchange_refinement()

    final_utilities = np.array(
        [lattice.value(i, coords[i]) for i in range(num_players)]
    )
    return GreedyOptimum(
        allocations=coords * quanta, utilities=final_utilities, steps=steps
    )


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
