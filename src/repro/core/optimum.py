"""MaxEfficiency: the welfare-maximizing reference allocation.

The paper obtains its efficiency upper bound by running an "infeasible
very fine-grained hill-climbing search" over concave utilities
(Section 6).  We reproduce that with a lazy-greedy quantum allocator:
resources are split into small quanta and each quantum is handed to the
player whose utility increases the most.  For concave utilities marginal
gains are diminishing, so the lazy evaluation (a max-heap with stale
entries re-validated on pop) is sound, and the greedy solution converges
to the continuous optimum as the quantum shrinks.

The search runs on the integer quantum lattice.  A player's state is its
integer coordinates (quanta held per resource), and the allocation they
stand for is ``coords × quanta``: the one float point the search ever
evaluates or returns.  Utility values come from one table per distinct
utility object, shared by every player that holds it (on a chip, every
core running one application), so the greedy fill, the exchange passes
and the final utilities read table entries by integer index.

The greedy fill hands out a player's quanta of one resource in runs.
Heap entries order by ``(-gain, counter)``, and an entry pushed back
after a step carries the newest counter, so the next pop would return
it only when its fresh gain is strictly above the heap top's (or the
heap is empty): on a tie the older entry wins.  So after a step the
fill keeps stepping the same ``(i, j)`` while quanta remain, the player
is under its limit and the fresh gain beats the top, which no step of a
run changes.  A gain that ties or falls below the top is pushed as
before and ends the run; a gain above the top but not positive is
dropped, as the pop would drop it.  Counters are consumed differently,
but their order is not, so every pop, and every ``current`` bit, is the
per-quantum fill's.

The exchange passes score incrementally.  The single-resource pass
keeps every resource's gains and losses between passes and re-scores
only the recipient and donor of each move; the joint pass scores the
recipients of a bundle once and reuses those gains for every donor
offering the same bundle until a move happens.  Rows that are not
re-scored would read the same table entries against an unchanged
``current``, so the result equals a full rescan's exactly.
"""

from __future__ import annotations

import array
import heapq
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from ..utility.base import UtilityFunction
from ..utility.batch import BatchedUtilitySet, player_classes
from ..utility.tabular import GridUtility2D

__all__ = ["max_efficiency_allocation", "GreedyOptimum"]

#: Move budgets of the single-resource and joint exchange passes.
_EXCHANGE_MAX_MOVES = 20000
_JOINT_MAX_MOVES = 5000
#: A move must raise total utility by more than this to be made.
_MOVE_TOLERANCE = 1e-12
#: Largest table filled up front by one ``value_batch`` call (512 KB of
#: float64).  A chip's tables hold a few thousand points; the default
#: 1/256 quanta of a three-resource market would give 17M.
_EAGER_FILL_MAX_POINTS = 1 << 16

#: Eagerly filled tables of read-only grids, oldest first, keyed by
#: ``(grid, box shape, quanta bytes)``.  Every box of a chip has the
#: same shape per application, so the tables of both chips' 24 SPEC
#: applications (48, a few tens of kB each) fit.
_TABLES: "OrderedDict[tuple, array.array]" = OrderedDict()
_TABLES_SIZE = 64


@dataclass
class GreedyOptimum:
    """Result of the greedy welfare maximization."""

    allocations: np.ndarray  # (N, M)
    utilities: np.ndarray    # (N,)
    steps: int

    @property
    def efficiency(self) -> float:
        return float(self.utilities.sum())


class _LazyTable(dict):
    """A utility table filled on first read: flat index -> value."""

    __slots__ = ("utility", "shape", "quanta")

    def __init__(self, utility: UtilityFunction, shape: tuple, quanta: np.ndarray):
        super().__init__()
        self.utility, self.shape, self.quanta = utility, shape, quanta

    def __missing__(self, flat: int) -> float:
        point = np.multiply(np.unravel_index(flat, self.shape), self.quanta)
        value = self[flat] = self.utility.value(point)
        return value


def _utility_table(utility: UtilityFunction, shape: tuple, quanta: np.ndarray):
    """``U(coords × quanta)`` over the box ``shape``, indexed C-order flat.

    A box of up to ``_EAGER_FILL_MAX_POINTS`` fills in one counted
    dispatch of a one-utility :class:`BatchedUtilitySet` (bitwise the
    utility's ``value_batch``) into a flat float64 buffer; a larger one
    fills each entry on its first read through ``value``, uncounted,
    since the search visits a small corner of a large box.  The eager
    table of a grid whose arrays are all read-only (every memoized true
    grid) is a function of the key ``(grid, shape, quanta)``, so it is
    kept in ``_TABLES`` and shared with every later search on that key.
    """
    if math.prod(shape) > _EAGER_FILL_MAX_POINTS:
        return _LazyTable(utility, shape, quanta)
    key = None
    if isinstance(utility, GridUtility2D) and not any(
        a.flags.writeable for a in (utility.xs, utility.ys, utility.values)
    ):
        key = (utility, shape, quanta.tobytes())
        table = _TABLES.get(key)
        if table is not None:
            return table
    points = np.indices(shape).reshape(len(shape), -1).T * quanta
    table = array.array("d")
    owners = np.zeros(points.shape[0], dtype=np.intp)
    values = BatchedUtilitySet([utility]).values(points, owners)
    table.frombytes(np.asarray(values, dtype=float).tobytes())
    if key is not None:
        _TABLES[key] = table
        while len(_TABLES) > _TABLES_SIZE:
            _TABLES.popitem(last=False)
    return table


def _coordinate_limits(
    quanta: np.ndarray, totals: np.ndarray, caps: Optional[np.ndarray], num_players: int
) -> np.ndarray:
    """Every player's largest reachable coordinate per resource, ``(N, M)``.

    Coordinate ``c`` of resource ``j`` is within player ``i``'s cap when
    ``c × quanta[j] <= caps[i, j] + 1e-9``.  No player ever holds more
    than ``totals[j]`` quanta, so ``totals[j] + 1`` (the one-step
    overshoot the exchange pass scores) stands in for any larger limit.
    """
    limits = np.tile(totals + 1, (num_players, 1))
    if caps is None:
        return limits
    bound = caps + 1e-9
    # The floor of the quotient is within one of the answer; step it.
    count = np.floor(np.minimum(bound / quanta, limits)).astype(int)
    count += (count + 1) * quanta <= bound
    count -= count * quanta > bound
    return np.minimum(count, limits)


class _Lattice:
    """The search state on the quantum lattice, reading shared value tables.

    ``coords[i][j]`` is the number of quanta player ``i`` holds of
    resource ``j``, and ``limits[i][j]`` the largest count the player
    may reach (its cap, or one past the resource's total quanta).  The
    point of coordinates ``c`` is ``c × quanta``; ``current[i]`` is the
    running ``U_i`` of the player's point, accumulated from the gains
    and losses of its moves.

    Players of one class (holding one utility object,
    :func:`~repro.utility.batch.player_classes`) share one table.  Its
    box spans, per resource, coordinates ``0..max(limits[i][j])`` over
    the class, which covers every point the search scores: a player's
    coordinates plus one step, never beyond its limit.  Entry ``flat``
    of the C-order box is ``U(coords × quanta)``; a small box fills up
    front, a large one on first read (:func:`_utility_table`).
    ``flat[i]`` is player ``i``'s current index into ``tables[i]``, whose
    per-resource steps are ``strides[i]``.  Rows are Python lists: the
    same integers and IEEE doubles numpy would hold, without
    per-element boxing.
    """

    __slots__ = ("quanta", "limits", "coords", "current", "tables", "strides", "flat")

    def __init__(self, utilities, quanta: np.ndarray, limits: np.ndarray):
        num_players, num_resources = limits.shape
        classes, representatives = player_classes(utilities)
        boxes = np.zeros((representatives.size, num_resources), dtype=limits.dtype)
        np.maximum.at(boxes, classes, limits + 1)
        tables, strides = [], []
        for first, box in zip(representatives.tolist(), boxes.tolist()):
            shape = tuple(box)
            tables.append(_utility_table(utilities[first], shape, quanta))
            strides.append([math.prod(shape[j + 1:]) for j in range(num_resources)])
        self.tables = [tables[c] for c in classes.tolist()]
        self.strides = [strides[c] for c in classes.tolist()]
        self.quanta = quanta.tolist()
        self.limits = limits.tolist()
        self.coords = [[0] * num_resources for _ in range(num_players)]
        self.flat = [0] * num_players
        self.current = [table[0] for table in self.tables]

    def value(self, i: int) -> float:
        """``U_i`` at player ``i``'s current point."""
        return self.tables[i][self.flat[i]]

    def step_value(self, i: int, j: int, sign: int) -> float:
        """``U_i`` after moving ``sign`` (+1 or -1) quanta of ``j``."""
        return self.tables[i][self.flat[i] + sign * self.strides[i][j]]

    def capped(self, i: int, j: int) -> bool:
        """Would one more quantum of ``j`` push player ``i`` past its cap?"""
        return self.coords[i][j] >= self.limits[i][j]

    def move(self, i: int, j: int, sign: int) -> None:
        """Give (``sign`` = +1) or take (-1) one quantum of ``j``."""
        self.coords[i][j] += sign
        self.flat[i] += sign * self.strides[i][j]


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
    construction.  Every returned allocation is its lattice point
    ``coords × quanta``.
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

    totals = np.floor(capacities / quanta + 1e-9).astype(int)
    lattice = _Lattice(
        utilities, quanta, _coordinate_limits(quanta, totals, per_player_caps, num_players)
    )
    tables, strides, flat = lattice.tables, lattice.strides, lattice.flat
    coords, limits, current = lattice.coords, lattice.limits, lattice.current
    remaining = totals.tolist()

    def gain(i: int, j: int) -> float:
        return tables[i][flat[i] + strides[i][j]] - current[i]

    counter = itertools.count()
    heap: list = []
    for i in range(num_players):
        for j in range(num_resources):
            if remaining[j] > 0 and coords[i][j] < limits[i][j]:
                heapq.heappush(heap, (-gain(i, j), next(counter), i, j))

    steps = 0
    while heap:
        neg_gain, _, i, j = heapq.heappop(heap)
        if remaining[j] <= 0 or coords[i][j] >= limits[i][j]:
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
        # A run of (i, j) quanta (see the module docstring): keep
        # stepping while the fresh gain is strictly above the heap top.
        top = -heap[0][0] if heap else -math.inf
        table, stride, limit = tables[i], strides[i][j], limits[i][j]
        index, held, value, left = flat[i], coords[i][j], current[i], remaining[j]
        while True:
            index += stride
            held += 1
            value += fresh
            left -= 1
            steps += 1
            if left <= 0 or held >= limit:
                break
            fresh = table[index + stride] - value
            if not fresh > top:  # a tie, a lower gain or NaN: back to the heap
                heapq.heappush(heap, (-fresh, next(counter), i, j))
                break
            if fresh <= 0.0:
                break
        flat[i], coords[i][j], current[i], remaining[j] = index, held, value, left

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

    allocations = np.array(lattice.coords, dtype=float).reshape(num_players, num_resources)
    final_utilities = np.array([lattice.value(i) for i in range(num_players)], dtype=float)
    return GreedyOptimum(
        allocations=allocations * quanta, utilities=final_utilities, steps=steps
    )


def _exchange_refinement(lattice: _Lattice) -> int:
    """Quantum-exchange hill climbing on top of the greedy fill.

    Every resource keeps its players' gains and losses in one float64
    array each between passes, and a pass re-scores only the rows marked
    stale: every player on the first pass, then the recipient and donor
    of each move, for every resource.  Any other row would read the same
    table entries against an unchanged ``current``, to the same bits.
    """
    coords, limits, current = lattice.coords, lattice.limits, lattice.current
    step_value = lattice.step_value
    num_players, num_resources = len(coords), len(lattice.quanta)
    gains_by_resource = [np.full(num_players, -np.inf) for _ in range(num_resources)]
    losses_by_resource = [np.full(num_players, np.inf) for _ in range(num_resources)]
    stale = [set(range(num_players)) for _ in range(num_resources)]
    moves = 0
    improved = True
    while improved and moves < _EXCHANGE_MAX_MOVES:
        improved = False
        for j in range(num_resources):
            gains, losses = gains_by_resource[j], losses_by_resource[j]
            for i in stale[j]:
                held = coords[i][j]
                gains[i] = (
                    -math.inf if held >= limits[i][j]
                    else step_value(i, j, 1) - current[i]
                )
                losses[i] = current[i] - step_value(i, j, -1) if held > 0 else math.inf
            stale[j].clear()
            recipient, donor = _best_exchange_pair(gains, losses)
            if recipient is None:
                continue
            gain, loss = gains.item(recipient), losses.item(donor)
            if gain - loss > _MOVE_TOLERANCE:
                lattice.move(recipient, j, 1)
                lattice.move(donor, j, -1)
                current[recipient] += gain
                current[donor] -= loss
                for rows in stale:
                    rows.update((recipient, donor))
                moves += 1
                improved = True
    return moves


def _joint_exchange_pass(lattice: _Lattice) -> int:
    """Move one quantum of *every* resource the donor holds at once.

    A recipient's gain depends on the donor only through the bundle (the
    set of resources the donor holds any of), so the gains are kept per
    bundle and reused by every donor offering the same bundle until a
    move changes the allocations.
    """
    coords, limits, current = lattice.coords, lattice.limits, lattice.current
    tables, strides, flat = lattice.tables, lattice.strides, lattice.flat
    num_players = len(coords)

    def offset(i: int, bundle: tuple) -> int:
        return sum(s for s, b in zip(strides[i], bundle) if b)

    # bundle -> each recipient's gain (-inf past a cap, None until
    # scored); valid until the next move.
    scored: dict = {}
    moves = 0
    improved = True
    while improved and moves < _JOINT_MAX_MOVES:
        improved = False
        for donor in range(num_players):
            bundle = tuple(1 if c > 0 else 0 for c in coords[donor])
            if not any(bundle):
                continue
            loss = current[donor] - tables[donor][flat[donor] - offset(donor, bundle)]
            gains = scored.setdefault(bundle, [None] * num_players)
            best_gain = 0.0
            best_recipient = None
            for recipient in range(num_players):
                if recipient == donor:
                    continue
                gain = gains[recipient]
                if gain is None:
                    if any(
                        c + b > limit
                        for c, b, limit in zip(coords[recipient], bundle, limits[recipient])
                    ):
                        gain = -math.inf
                    else:
                        gain = (
                            tables[recipient][flat[recipient] + offset(recipient, bundle)]
                            - current[recipient]
                        )
                    gains[recipient] = gain
                if gain > best_gain:
                    best_gain = gain
                    best_recipient = recipient
            if best_recipient is not None and best_gain - loss > _MOVE_TOLERANCE:
                for j, b in enumerate(bundle):
                    if b:
                        lattice.move(donor, j, -1)
                        lattice.move(best_recipient, j, 1)
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
    on the other side, so both combinations are evaluated.  The top two
    entries of each side are read as Python floats.

    Ties between identical players follow numpy's default ``argsort``,
    which is unstable and picks a SIMD kernel for the host CPU, so a tie
    can resolve differently on another machine.  On numpy 2.4 with
    AVX-512, ``kind="stable"`` changes the 64-core BBNN-00, CCPP-00 and
    CPBN-00 optima, and disabling the X86_V3/X86_V4 kernels through
    ``NPY_DISABLE_CPU_FEATURES`` changes BBNN-00 and CPBN-00.  The
    persistent arrays therefore stay float64, holding the same contents
    a full rescan would build, sorted by the default kind, as when the
    recorded references were made.
    """
    donors = losses.argsort()[:2].tolist()
    best = (None, None)
    best_value = -math.inf
    for r in gains.argsort()[:-3:-1].tolist():
        gain = gains.item(r)
        if not math.isfinite(gain):
            continue
        for d in donors:
            loss = losses.item(d)
            if r == d or not math.isfinite(loss):
                continue
            value = gain - loss
            if value > best_value:
                best_value = value
                best = (r, d)
    return best


def _distribute_leftovers(lattice: _Lattice, remaining: List[int]) -> None:
    """Hand out utility-neutral residual quanta round-robin ("no leftovers")."""
    num_players = len(lattice.coords)
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
