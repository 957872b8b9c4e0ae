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
* **Shared objects** — players holding the *same* utility object (the
  synthetic theory markets) are evaluated with a single
  ``gradient_batch`` call.
* **Everything else** — one ``gradient_batch`` call per distinct
  utility.

:meth:`BatchedUtilitySet._dispatch`, in its per-group step
``_group_eval``, is the one place that counts utility work into
:data:`~repro.utility.base.EVAL_COUNTERS`: one call per group it
dispatches to, never the dispatches nested inside that group's body.

A row's result depends on that row alone, so batched gradients agree
bitwise with per-player one-row gradients — the property that lets the
lockstep hill climb reproduce the per-player scalar climb exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .base import EVAL_COUNTERS, UtilityFunction, _as_point_matrix
from .tabular import GridUtility2D, StackedGrids

__all__ = ["BatchedUtilitySet"]


#: Group kinds in a compiled plan.
_STACKED = 0
_SHARED = 1


class BatchedUtilitySet:
    """A compiled batched evaluator for a fixed utility list.

    Build once per market (:attr:`Market.evaluator
    <repro.core.market.Market.evaluator>`; the player list is fixed for
    the market's lifetime), then call :meth:`gradients` every lockstep
    iteration with whatever subset of players is still climbing.  Envy
    scoring builds one per allocation and asks :meth:`values` for every
    (player, bundle) pair at once.
    """

    def __init__(self, utilities: Sequence[UtilityFunction]):
        self.utilities: List[UtilityFunction] = list(utilities)
        if not self.utilities:
            raise ValueError("need at least one utility")
        self.num_resources = self.utilities[0].num_resources
        #: Group index of every player and the player's slot inside it.
        self._group_of = np.empty(len(self.utilities), dtype=np.intp)
        self._groups: List[tuple] = []
        self._compile()

    def _compile(self) -> None:
        # Stackable 2-D grids, one stack per grid shape (degenerate
        # single-sample axes take the np.interp branches of
        # GridUtility2D._value_batch, so those grids stay out);
        # same-object grids share a slot.
        stacks: dict = {}
        remaining: List[int] = []
        slots = [0] * len(self.utilities)
        for idx, utility in enumerate(self.utilities):
            if (
                isinstance(utility, GridUtility2D)
                and utility.xs.size > 1
                and utility.ys.size > 1
            ):
                stack = stacks.get(utility.values.shape)
                if stack is None:
                    stack = stacks[utility.values.shape] = ([], {}, [])
                members, slot_by_id, rows = stack
                slot = slot_by_id.get(id(utility))
                if slot is None:
                    slot = slot_by_id[id(utility)] = len(members)
                    members.append(utility)
                rows.append(idx)
                slots[idx] = slot
            else:
                remaining.append(idx)
        self._slot_of = np.array(slots, dtype=np.intp)

        for members, _, rows in stacks.values():
            group = len(self._groups)
            self._groups.append((_STACKED, StackedGrids(members)))
            self._group_of[rows] = group

        # Remaining players: one group per distinct utility object.
        group_by_id: dict = {}
        for idx in remaining:
            utility = self.utilities[idx]
            group = group_by_id.get(id(utility))
            if group is None:
                group = len(self._groups)
                group_by_id[id(utility)] = group
                self._groups.append((_SHARED, utility))
            self._group_of[idx] = group

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
