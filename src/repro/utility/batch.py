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
  into one bilinear-kernel call.
* **Everything else** — one ``gradient_batch`` call per distinct
  utility object, however many players hold it.

A *player class* is the set of players holding one utility object
(:func:`player_classes`; on a chip, every core running one application
holds the memoized grid of that application).  Classmates evaluate the
same function, so a caller whose inputs are bitwise equal within every
class (:meth:`BatchedUtilitySet.classwise_constant`) evaluates one row
per class and expands the result, to the same bits.

:meth:`BatchedUtilitySet._dispatch`, in its per-group step
``_group_eval``, is the one place that counts utility work into
:data:`~repro.utility.base.EVAL_COUNTERS`: one call per group it
dispatches to, never the dispatches nested inside that group's body.

A row's result depends on that row alone, so batched gradients agree
bitwise with per-player one-row gradients — the property that lets the
lockstep hill climb reproduce the per-player scalar climb exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import EVAL_COUNTERS, UtilityFunction, _as_point_matrix
from .tabular import GridUtility2D, StackedGrids

__all__ = ["BatchedUtilitySet", "player_classes"]


#: Group kinds in a compiled plan.
_STACKED = 0
_SHARED = 1


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
    the market's lifetime), then call :meth:`gradients` every lockstep
    iteration with whatever subset of players is still climbing.  Envy
    scoring asks :meth:`values` for every (class, bundle) pair at once.

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
        #: Group index of every player and the player's slot inside it.
        self._group_of = group_of.take(self.classes)
        self._slot_of = slot_of.take(self.classes)

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
        return self._dispatch(allocations, players, gradient=True)

    def values(
        self, allocations: np.ndarray, players: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``U_i`` for ``players[k]`` at allocation row ``k``, as a ``(K,)`` vector.

        Rows are paired with players as in :meth:`gradients`; entry ``k``
        equals ``utilities[players[k]].value(allocations[k])`` bitwise for
        every built-in utility family.
        """
        return self._dispatch(allocations, players, gradient=False)

    def _dispatch(
        self, allocations: np.ndarray, players: Optional[np.ndarray], gradient: bool
    ) -> np.ndarray:
        """One vectorized call per group holding any of ``players``,
        each counted once as a batched call covering its rows."""
        allocations = _as_point_matrix(allocations, self.num_resources)
        if players is None:
            players = np.arange(allocations.shape[0])
        if len(self._groups) == 1 and players.size:
            # One group covers every row: no select, no scatter.
            return self._group_eval(self._groups[0], allocations, players, gradient)
        out = np.empty_like(allocations) if gradient else np.empty(allocations.shape[0])
        group_of = self._group_of[players]
        for g, group in enumerate(self._groups):
            rows = np.flatnonzero(group_of == g)
            if rows.size:
                out[rows] = self._group_eval(group, allocations[rows], players[rows], gradient)
        return out

    def _group_eval(
        self, group: tuple, allocations: np.ndarray, players: np.ndarray, gradient: bool
    ) -> np.ndarray:
        """One group's vectorized call over its rows, counted once."""
        kind, evaluator = group
        if kind == _STACKED:
            points = evaluator.gradient_points if gradient else evaluator.value_points
            result = points(allocations, self._slot_of[players])
        else:
            batch = evaluator.gradient_batch if gradient else evaluator.value_batch
            result = batch(allocations)
        if gradient:
            EVAL_COUNTERS.batch_gradient_calls += 1
        else:
            EVAL_COUNTERS.batch_value_calls += 1
        EVAL_COUNTERS.batch_points += allocations.shape[0]
        return result
