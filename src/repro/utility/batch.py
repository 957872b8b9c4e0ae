"""Cross-player batched utility evaluation (the hot-loop fast path).

A market clearing evaluates marginal utilities for *every* player at
every hill-climb step.  The per-player scalar path pays a stack of tiny
Python/numpy calls per player per step; this module compiles a fixed
player list into a :class:`BatchedUtilitySet` that answers "gradients (or
values) of players ``I`` at allocations ``A``" in as few vectorized
dispatches as possible:

* **Stacked grids** — :class:`~repro.utility.tabular.GridUtility2D`
  players whose grids share a *shape* (every core of a homogeneous chip,
  i.e. every Fig-4/Fig-5 player — the cache axis is common, the power
  axis is per-app) are compiled into one
  :class:`~repro.utility.tabular.StackedGrids` lookup table.  One
  vectorized central-difference evaluation then serves the whole group,
  however many players are active — ``N`` numeric gradients collapse
  into one bilinear-kernel call.  The hill climb's requests
  (:meth:`BatchedUtilitySet.bid_marginals`: Equation 7 at a few bid
  rows per iteration) skip numpy for such a group: a compiled
  Python-float kernel on the stack's tables answers them at a cost per
  row, not per dispatch, to the same bits.
* **Everything else** — one ``gradient_batch`` call per distinct
  utility object, however many players hold it.

A *player class* is the set of players holding one utility object
(:func:`player_classes`; on a chip, every core running one application
holds the memoized grid of that application).  Classmates evaluate the
same function, so a caller whose inputs are bitwise equal within every
class (:meth:`BatchedUtilitySet.classwise_constant`) evaluates one row
per class and expands the result, to the same bits.

``_group_eval``, the per-group step of
:meth:`BatchedUtilitySet._dispatch` and of
:meth:`BatchedUtilitySet.bid_marginals`, is the one place that counts
utility work into :data:`~repro.utility.base.EVAL_COUNTERS`: one call
per group a request reaches, never the dispatches nested inside that
group's body.

A row's result depends on that row alone, so batched gradients agree
bitwise with per-player one-row gradients — the property that lets the
lockstep hill climb reproduce the per-player scalar climb exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..qa import sanitize as _sanitize
from .base import EVAL_COUNTERS, UtilityFunction, _as_point_matrix
from .tabular import GridUtility2D, StackedGrids

__all__ = ["BatchedUtilitySet", "player_classes"]


#: Group kinds in a compiled plan.
_STACKED = 0
_SHARED = 1

#: Request kinds a group answers.
_VALUES = 0
_GRADIENTS = 1
_MARGINALS = 2

#: Finite stand-in for the infinite first-bid marginal (``y_j == 0``):
#: large enough to dominate any real marginal, scaled by capacity so the
#: bytes-vs-watts resources keep their relative ordering.
_FIRST_BID_RATE = 1e9


def _equation_2_and_7(bids, others, capacities):
    """Equation 2's allocation and Equation 7's ``dr_j/db_j`` from one total.

    ``total > 0`` and its divisor-safe copy are computed once and shared
    by the allocation ``b_j / (b_j + y_j) * C_j`` and the allocation's
    bid derivative ``y_j * C_j / (b_j + y_j)^2``.  When nobody bids on a
    resource the allocation is zero and a first bid captures all of it,
    a rate taken as ``C_j * _FIRST_BID_RATE``, as is a derivative that
    overflows.  Broadcasts over a leading row axis.
    """
    total = bids + others
    positive = total > 0.0
    safe = np.where(positive, total, 1.0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        allocation = np.where(positive, bids / safe, 0.0) * capacities
        dr_db = np.where(positive, others * capacities / safe ** 2, np.inf)
    dr_db = np.where(np.isinf(dr_db), capacities * _FIRST_BID_RATE, dr_db)
    if _sanitize.ACTIVE:
        _sanitize.check_player_allocations(allocation, capacities)
    return allocation, dr_db


def player_classes(utilities: Sequence[UtilityFunction]) -> Tuple[np.ndarray, np.ndarray]:
    """``(classes, representatives)`` of a utility list.

    Players holding the same utility object form one class; classes are
    numbered in order of their first player.  ``classes[i]`` is player
    ``i``'s class and ``representatives[c]`` the first player of class
    ``c``, so ``representatives.take(classes)`` maps every player to its
    class's first player.
    """
    class_by_id: dict = {}
    classes = np.empty(len(utilities), dtype=np.intp)
    representatives: List[int] = []
    for idx, utility in enumerate(utilities):
        c = classes[idx] = class_by_id.setdefault(id(utility), len(representatives))
        if c == len(representatives):
            representatives.append(idx)
    return classes, np.array(representatives, dtype=np.intp)


class BatchedUtilitySet:
    """A compiled batched evaluator for a fixed utility list.

    Build once per market (:attr:`Market.evaluator
    <repro.core.market.Market.evaluator>`; the player list is fixed for
    the market's lifetime).  The hill climb asks :meth:`bid_marginals`
    every iteration for the Equation 7 marginals of whatever players are
    still climbing; :meth:`gradients` and :meth:`values` answer numpy
    batches (final lambdas, the final utilities, envy scoring's every
    (class, bundle) pair at once).

    ``classes`` and ``representatives`` are the list's
    :func:`player_classes`.
    """

    def __init__(self, utilities: Sequence[UtilityFunction]):
        self.utilities: List[UtilityFunction] = list(utilities)
        if not self.utilities:
            raise ValueError("need at least one utility")
        self.num_resources = self.utilities[0].num_resources
        self.classes, self.representatives = player_classes(self.utilities)
        self._groups: List[tuple] = []
        self._compile()

    def _compile(self) -> None:
        # One entry per class: stackable 2-D grids go into one stack per
        # grid shape (degenerate single-sample axes take the np.interp
        # branches of GridUtility2D._value_batch, so those grids stay
        # out), every other utility into a group of its own.
        num_classes = self.representatives.size
        group_of = np.empty(num_classes, dtype=np.intp)
        slot_of = np.zeros(num_classes, dtype=np.intp)
        stacks: dict = {}
        unstacked: List[int] = []
        for c, idx in enumerate(self.representatives.tolist()):
            utility = self.utilities[idx]
            if (
                isinstance(utility, GridUtility2D)
                and utility.xs.size > 1
                and utility.ys.size > 1
            ):
                members, owners = stacks.setdefault(utility.values.shape, ([], []))
                slot_of[c] = len(members)
                members.append(utility)
                owners.append(c)
            else:
                unstacked.append(c)
        for members, owners in stacks.values():
            group_of[owners] = len(self._groups)
            self._groups.append((_STACKED, StackedGrids(members)))
        for c in unstacked:
            group_of[c] = len(self._groups)
            self._groups.append((_SHARED, self.utilities[self.representatives[c]]))
        #: Group index of every player and the player's slot inside it,
        #: as arrays for numpy batches and as lists for bid marginals.
        self._group_of = group_of.take(self.classes)
        self._slot_of = slot_of.take(self.classes)
        self._group_list = self._group_of.tolist()
        self._slot_list = self._slot_of.tolist()

    def classwise_constant(self, rows: np.ndarray) -> bool:
        """True when every player's row of ``rows`` is bitwise its
        class representative's.

        ``rows`` has one row (or entry) per player.  Bits are compared,
        not values, so a signed zero or a NaN payload splits a class.
        """
        bits = np.ascontiguousarray(rows, dtype=float).view(np.int64)
        expanded = bits.take(self.representatives, axis=0).take(self.classes, axis=0)
        return bool(np.array_equal(bits, expanded))

    def gradients(
        self, allocations: np.ndarray, players: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``dU_i/dr`` for ``players[k]`` at allocation row ``k``.

        ``allocations`` is ``(K, M)`` with row ``k`` belonging to player
        ``players[k]`` (default: players ``0..K-1``).  Row ``k`` of the
        result equals ``utilities[players[k]].gradient(allocations[k])``
        bitwise for every built-in utility family.
        """
        return self._dispatch(allocations, players, _GRADIENTS)

    def values(
        self, allocations: np.ndarray, players: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``U_i`` for ``players[k]`` at allocation row ``k``, as a ``(K,)`` vector.

        Rows are paired with players as in :meth:`gradients`; entry ``k``
        equals ``utilities[players[k]].value(allocations[k])`` bitwise for
        every built-in utility family.
        """
        return self._dispatch(allocations, players, _VALUES)

    def bid_marginals(
        self,
        players: List[int],
        bids: List[List[float]],
        others: List[List[float]],
        capacities: List[float],
    ) -> List[List[float]]:
        """Equation 7 marginals ``dU/db`` of player ``players[k]`` at bid
        row ``bids[k]``, as lists of floats.

        ``others[k]`` is the sum of the other players' bids as that
        player sees them, and ``capacities`` the market's ``C_j``.  This
        is the hill climb's request: a few rows per iteration, in lists,
        so the rows a stacked grid group holds cost no numpy dispatch;
        its compiled kernel
        (:meth:`StackedGrids.bid_marginals
        <repro.utility.tabular.StackedGrids.bid_marginals>`) answers
        them.  Every other group runs Equations 2 and 7 and its
        ``gradient_batch`` in numpy.  Each group is counted as one
        gradient call covering its rows, as in :meth:`gradients`, and
        row ``k`` equals row ``k`` of
        :func:`~repro.core.player.marginal_utility_of_bids_batch` bit for
        bit.  ``players`` is not empty.
        """
        inputs = (bids, others, capacities)
        if len(self._groups) == 1:
            out = self._group_eval(self._groups[0], players, _MARGINALS, inputs)
        else:
            members: dict = {}
            for k, player in enumerate(players):
                members.setdefault(self._group_list[player], []).append(k)
            out = [None] * len(players)
            for g in sorted(members):
                rows = members[g]
                part = self._group_eval(
                    self._groups[g],
                    [players[k] for k in rows],
                    _MARGINALS,
                    ([bids[k] for k in rows], [others[k] for k in rows], capacities),
                )
                for k, row in zip(rows, part):
                    out[k] = row
        if _sanitize.ACTIVE:
            # A kernel keeps its allocations to itself: check them as
            # Equation 2 gives them, then the marginals.
            _equation_2_and_7(np.array(bids), np.array(others), np.array(capacities))
            _sanitize.check_marginals(np.array(out))
        return out

    def _dispatch(
        self, allocations: np.ndarray, players: Optional[np.ndarray], request: int
    ) -> np.ndarray:
        """One vectorized call per group holding any of ``players``,
        each counted once as a batched call covering its rows."""
        allocations = _as_point_matrix(allocations, self.num_resources)
        if players is None:
            players = np.arange(allocations.shape[0])
        if len(self._groups) == 1 and players.size:
            # One group covers every row: no select, no scatter.
            return self._group_eval(self._groups[0], players, request, allocations)
        if request == _GRADIENTS:
            out = np.empty_like(allocations)
        else:
            out = np.empty(allocations.shape[0])
        group_of = self._group_of[players]
        for g, group in enumerate(self._groups):
            rows = np.flatnonzero(group_of == g)
            if rows.size:
                out[rows] = self._group_eval(group, players[rows], request, allocations[rows])
        return out

    def _group_eval(self, group: tuple, players, request: int, inputs):
        """One group's call over its rows, counted once.

        ``inputs`` is the ``(K, M)`` allocations of a value or gradient
        request, and ``(bids, others, capacities)`` of a bid-marginal one.
        """
        kind, evaluator = group
        if request == _MARGINALS:
            bids, others, capacities = inputs
            if kind == _STACKED:
                slots = self._slot_list
                result = evaluator.bid_marginals(
                    [slots[player] for player in players], bids, others,
                    capacities, [c * _FIRST_BID_RATE for c in capacities],
                )
            else:
                allocation, dr_db = _equation_2_and_7(
                    np.array(bids), np.array(others), np.array(capacities)
                )
                result = (evaluator.gradient_batch(allocation) * dr_db).tolist()
        elif kind == _STACKED:
            points = evaluator.value_points if request == _VALUES else evaluator.gradient_points
            result = points(inputs, self._slot_of[players])
        else:
            batch = evaluator.value_batch if request == _VALUES else evaluator.gradient_batch
            result = batch(inputs)
        if request == _VALUES:
            EVAL_COUNTERS.batch_value_calls += 1
        else:
            EVAL_COUNTERS.batch_gradient_calls += 1
        EVAL_COUNTERS.batch_points += len(players)
        return result
