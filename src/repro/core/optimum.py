"""MaxEfficiency: the welfare-maximizing reference allocation.

The paper obtains its efficiency upper bound by running an "infeasible
very fine-grained hill-climbing search" over concave utilities
(Section 6).  We reproduce that with a lazy-greedy quantum allocator:
resources are split into small quanta and each quantum is handed to the
player whose utility increases the most.  For concave utilities marginal
gains are diminishing, so the lazy evaluation (a max-heap with stale
entries re-validated on pop) is sound, and the greedy solution converges
to the continuous optimum as the quantum shrinks.

The search tracks every player's integer lattice coordinates (quanta
held per resource) next to its float allocation and memoizes utility
lookups by those integer tuples, not by rounded floats: a revisited
point costs one dict probe, and a new one is evaluated at the float
point the search holds when it first gets there.

The exchange passes score incrementally.  The single-resource pass
keeps every resource's gains and losses between passes and re-scores
only the recipient and donor of each move; the joint pass scores the
recipients of a bundle once and reuses those gains for every donor
offering the same bundle until a move happens.  Rows that are not
re-scored would come out of the memo with the same bits, so the result
equals a full rescan's exactly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from ..utility.base import UtilityFunction

__all__ = ["max_efficiency_allocation", "GreedyOptimum"]

#: Move budgets of the single-resource and joint exchange passes.
_EXCHANGE_MAX_MOVES = 20000
_JOINT_MAX_MOVES = 5000
#: A move must raise total utility by more than this to be made.
_MOVE_TOLERANCE = 1e-12


@dataclass
class GreedyOptimum:
    """Result of the greedy welfare maximization."""

    allocations: np.ndarray  # (N, M)
    utilities: np.ndarray    # (N,)
    steps: int

    @property
    def efficiency(self) -> float:
        return float(self.utilities.sum())


class _Lattice:
    """The search state on the quantum lattice, with a per-player memo.

    ``allocations[i][j]`` is the running float sum of the quanta player
    ``i`` holds of resource ``j`` and ``coords[i][j]`` their integer
    count; ``current[i]`` is the cached ``U_i(allocations[i])``.  Rows
    are Python lists: the same IEEE doubles numpy would hold, without
    per-element boxing.

    Every point the greedy fill, the exchange passes and the leftovers
    pass evaluate lies on the lattice, and the refinement loop re-scores
    the same candidate moves on every sweep — ~20x redundancy on a
    64-player problem.  Utility lookups are therefore memoized per
    player by integer lattice coordinates: a hit is one dict probe on an
    integer tuple, and a miss evaluates the utility at the float point
    the search holds for those coordinates at that moment (with
    non-power-of-two quanta, later float sums for the same coordinates
    may differ in the last bits; they reuse the first value).
    """

    __slots__ = ("utilities", "quanta", "caps", "allocations", "coords", "current", "_memo")

    def __init__(self, utilities, quanta: List[float], caps: Optional[List[List[float]]]):
        self.utilities = utilities
        self.quanta = quanta
        self.caps = caps
        num_players, num_resources = len(utilities), len(quanta)
        self.allocations = [[0.0] * num_resources for _ in range(num_players)]
        self.coords = [[0] * num_resources for _ in range(num_players)]
        self.current = [0.0] * num_players
        self._memo: List[dict] = [{} for _ in range(num_players)]

    def value(self, i: int, coords: List[int], point: List[float]) -> float:
        """``U_i(point)``, memoized by ``point``'s lattice ``coords``."""
        key = tuple(coords)
        hit = self._memo[i].get(key)
        if hit is None:
            hit = self._memo[i][key] = self.utilities[i].value(np.array(point))
        return hit

    def step_value(self, i: int, j: int, sign: int) -> float:
        """``U_i`` after moving ``sign`` (+1 or -1) quanta of ``j``."""
        coords = self.coords[i]
        coords[j] += sign
        key = tuple(coords)
        coords[j] -= sign
        memo = self._memo[i]
        hit = memo.get(key)
        if hit is None:
            point = self.allocations[i].copy()
            point[j] += sign * self.quanta[j]
            hit = memo[key] = self.utilities[i].value(np.array(point))
        return hit

    def capped(self, i: int, j: int) -> bool:
        """Would one more quantum of ``j`` push player ``i`` past its cap?"""
        return (
            self.caps is not None
            and self.allocations[i][j] + self.quanta[j] > self.caps[i][j] + 1e-9
        )

    def move(self, i: int, j: int, sign: int) -> None:
        """Give (``sign`` = +1) or take (-1) one quantum of ``j``."""
        self.allocations[i][j] += sign * self.quanta[j]
        self.coords[i][j] += sign


def max_efficiency_allocation(
    utilities: Sequence[UtilityFunction],
    capacities: Sequence[float],
    quanta: Sequence[float],
    per_player_caps: Optional[np.ndarray] = None,
) -> GreedyOptimum:
    """Greedily maximize ``sum_i U_i(r_i)`` subject to capacity limits.

    Parameters
    ----------
    utilities:
        One concave utility per player over the M resources.
    capacities:
        Total amount of each resource to distribute.
    quanta:
        Allocation granularity per resource (e.g. one 128 kB cache
        region, one 0.125 W RAPL power unit).  Smaller quanta approach
        the continuous optimum at linear cost.
    per_player_caps:
        Optional (N, M) matrix limiting any player's share of each
        resource (e.g. the 2 MB shadow-tag monitoring limit).

    Notes
    -----
    Capacity that yields no player any positive gain is still handed out
    round-robin at the end so the result honours the paper's "no
    leftovers" invariant; those quanta are utility-neutral by
    construction.
    """
    capacities = np.asarray(capacities, dtype=float)
    quanta = np.asarray(quanta, dtype=float)
    num_players = len(utilities)
    num_resources = capacities.size
    if capacities.ndim != 1 or not np.all(np.isfinite(capacities) & (capacities >= 0)):
        raise MarketConfigurationError("capacities must be a finite, non-negative vector")
    if quanta.shape != (num_resources,):
        raise MarketConfigurationError("need one quantum per resource")
    if not np.all(np.isfinite(quanta) & (quanta > 0)):
        raise MarketConfigurationError("quanta must be finite and positive")
    if per_player_caps is not None:
        per_player_caps = np.asarray(per_player_caps, dtype=float)
        if per_player_caps.shape != (num_players, num_resources):
            raise MarketConfigurationError("per_player_caps must be (N, M)")
        if not np.all(per_player_caps >= 0):
            raise MarketConfigurationError("per_player_caps must be non-negative, not NaN")

    lattice = _Lattice(
        utilities,
        quanta.tolist(),
        None if per_player_caps is None else per_player_caps.tolist(),
    )
    allocations, coords, current = lattice.allocations, lattice.coords, lattice.current
    capped = lattice.capped
    remaining = np.floor(capacities / quanta + 1e-9).astype(int).tolist()

    def gain(i: int, j: int) -> float:
        return lattice.step_value(i, j, 1) - current[i]

    counter = itertools.count()
    heap: list = []
    for i in range(num_players):
        current[i] = lattice.value(i, coords[i], allocations[i])
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
            # Diminishing returns: no entry below this one can be
            # positive for this (i, j); drop it.
            continue
        if heap and fresh < -heap[0][0] - 1e-15:
            # Stale entry: re-insert with the recomputed gain.
            heapq.heappush(heap, (-fresh, next(counter), i, j))
            continue
        lattice.move(i, j, 1)
        current[i] += fresh
        remaining[j] -= 1
        steps += 1
        if remaining[j] > 0 and not capped(i, j):
            heapq.heappush(heap, (-gain(i, j), next(counter), i, j))

    _distribute_leftovers(lattice, remaining)

    # Cache and power are complements for cliffy applications (extra
    # power is worthless until the working set fits), which violates the
    # submodularity the lazy greedy relies on.  A hill-climbing exchange
    # pass — move one quantum at a time from the player that loses least
    # to the player that gains most — repairs those misallocations; this
    # is the paper's "very fine-grained hill-climbing search".
    steps += _exchange_refinement(lattice)
    # Pure complements (a quantum of cache is worthless without the
    # matching power) defeat single-resource moves entirely: every
    # marginal gain is zero until both resources arrive.  A joint pass
    # transfers a bundle with one quantum of *every* resource at once.
    joint_moves = _joint_exchange_pass(lattice)
    if joint_moves:
        # Joint moves open new single-resource opportunities; re-run.
        steps += joint_moves + _exchange_refinement(lattice)

    result = np.array(allocations, dtype=float).reshape(num_players, num_resources)
    final_utilities = np.array(
        [lattice.value(i, coords[i], allocations[i]) for i in range(num_players)]
    )
    return GreedyOptimum(allocations=result, utilities=final_utilities, steps=steps)


def _exchange_refinement(lattice: _Lattice) -> int:
    """Quantum-exchange hill climbing on top of the greedy fill.

    Every resource keeps its players' gains and losses between passes,
    and a pass re-scores only the rows marked stale: every player on the
    first pass, then the recipient and donor of each move, for every
    resource.  Any other row would be re-scored from memo hits at an
    unchanged ``current`` to the same bits.  A stale row is re-scored at
    the point of the pass where a full rescan would reach it, so every
    memo miss is evaluated at the float point a full rescan would use.
    """
    allocations, current = lattice.allocations, lattice.current
    num_players = len(allocations)
    num_resources = len(lattice.quanta)
    gains_by_resource = [[-np.inf] * num_players for _ in range(num_resources)]
    losses_by_resource = [[np.inf] * num_players for _ in range(num_resources)]
    stale = [set(range(num_players)) for _ in range(num_resources)]
    moves = 0
    improved = True
    while improved and moves < _EXCHANGE_MAX_MOVES:
        improved = False
        for j, q in enumerate(lattice.quanta):
            gains, losses = gains_by_resource[j], losses_by_resource[j]
            for i in stale[j]:
                gains[i] = (
                    -np.inf if lattice.capped(i, j)
                    else lattice.step_value(i, j, 1) - current[i]
                )
                losses[i] = (
                    current[i] - lattice.step_value(i, j, -1)
                    if allocations[i][j] >= q - 1e-9 else np.inf
                )
            stale[j].clear()
            recipient, donor = _best_exchange_pair(np.array(gains), np.array(losses))
            if (
                recipient is not None
                and gains[recipient] - losses[donor] > _MOVE_TOLERANCE
            ):
                lattice.move(recipient, j, 1)
                lattice.move(donor, j, -1)
                current[recipient] += gains[recipient]
                current[donor] -= losses[donor]
                for rows in stale:
                    rows.update((recipient, donor))
                moves += 1
                improved = True
    return moves


def _joint_exchange_pass(lattice: _Lattice) -> int:
    """Move one quantum of *every* resource between players at once.

    A recipient's gain depends on the donor only through the bundle, so
    the gains are kept per distinct ``(bundle, bundle_coords)`` and
    reused by every donor offering the same bundle until a move changes
    the allocations; the donor's own entry is scored only when another
    donor needs it, exactly when the full scan would first score it.
    """
    allocations, coords, current, caps = (
        lattice.allocations, lattice.coords, lattice.current, lattice.caps
    )
    num_players = len(allocations)
    # (bundle, bundle_coords) -> each recipient's gain (-inf if capped,
    # None until scored); valid until the next move.
    scored: dict = {}
    moves = 0
    improved = True
    while improved and moves < _JOINT_MAX_MOVES:
        improved = False
        for donor in range(num_players):
            bundle = [min(q, a) for q, a in zip(lattice.quanta, allocations[donor])]
            if all(b <= 0.0 for b in bundle):
                continue
            # The bundle's lattice coordinates: one quantum of every
            # resource the donor holds any of.
            bundle_coords = [1 if c > 0 else 0 for c in coords[donor]]
            donor_after = [a - b for a, b in zip(allocations[donor], bundle)]
            donor_coords = [c - s for c, s in zip(coords[donor], bundle_coords)]
            loss = current[donor] - lattice.value(donor, donor_coords, donor_after)
            gains = scored.setdefault(
                (tuple(bundle), tuple(bundle_coords)), [None] * num_players
            )
            best_gain = 0.0
            best_recipient = None
            for recipient in range(num_players):
                if recipient == donor:
                    continue
                gain = gains[recipient]
                if gain is None:
                    trial = [a + b for a, b in zip(allocations[recipient], bundle)]
                    if caps is not None and any(
                        t > c + 1e-9 for t, c in zip(trial, caps[recipient])
                    ):
                        gain = -np.inf
                    else:
                        trial_coords = [
                            c + s for c, s in zip(coords[recipient], bundle_coords)
                        ]
                        gain = (
                            lattice.value(recipient, trial_coords, trial)
                            - current[recipient]
                        )
                    gains[recipient] = gain
                if gain > best_gain:
                    best_gain = gain
                    best_recipient = recipient
            if best_recipient is not None and best_gain - loss > _MOVE_TOLERANCE:
                allocations[donor] = donor_after
                coords[donor] = donor_coords
                allocations[best_recipient] = [
                    a + b for a, b in zip(allocations[best_recipient], bundle)
                ]
                coords[best_recipient] = [
                    c + s for c, s in zip(coords[best_recipient], bundle_coords)
                ]
                current[donor] -= loss
                current[best_recipient] += best_gain
                scored.clear()
                moves += 1
                improved = True
    return moves


def _best_exchange_pair(gains: np.ndarray, losses: np.ndarray):
    """The (recipient, donor) pair maximizing ``gain - loss``.

    The top gainer and the top (least-loss) donor may be the same
    player; in that case the optimum pairs one of them with the runner-up
    on the other side, so both combinations are evaluated.

    Ties between identical players follow numpy's default ``argsort``,
    which is unstable and picks a SIMD kernel for the host CPU, so a tie
    can resolve differently on another machine.  On numpy 2.4 with
    AVX-512, ``kind="stable"`` changes the 64-core BBNN-00, CCPP-00 and
    CPBN-00 optima, and disabling the X86_V3/X86_V4 kernels through
    ``NPY_DISABLE_CPU_FEATURES`` changes BBNN-00 and CPBN-00.  The arrays
    therefore stay float64 with the same contents, sorted by the default
    kind, as when the recorded references were made.
    """
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


def _distribute_leftovers(lattice: _Lattice, remaining: List[int]) -> None:
    """Hand out utility-neutral residual quanta round-robin ("no leftovers")."""
    num_players = len(lattice.allocations)
    for j in range(len(remaining)):
        i = 0
        guard = remaining[j] * num_players + num_players
        while remaining[j] > 0 and guard > 0:
            guard -= 1
            target = i % num_players
            i += 1
            if lattice.capped(target, j):
                continue
            lattice.move(target, j, 1)
            remaining[j] -= 1
