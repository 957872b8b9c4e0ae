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
  axis is per-app) are stacked into ``(G, nx)`` / ``(G, ny)`` axis
  matrices and one ``(G, nx, ny)`` value tensor.  One vectorized
  central-difference evaluation then serves the whole group, however
  many players are active — the dominant-cell case collapses from ``N``
  numeric gradients (each 2M scalar ``value()`` calls) to two
  utility-layer dispatches total.
* **Shared objects** — players holding the *same* utility object (the
  synthetic theory markets) are evaluated with a single
  ``gradient_batch`` call.
* **Everything else** — one ``gradient_batch`` call per distinct
  utility; utilities without a vectorized body fall back to the
  scalar loop inside :meth:`UtilityFunction.gradient_batch`, so results
  are always defined.

:meth:`BatchedUtilitySet._dispatch` is the one place that counts utility
work into :data:`~repro.utility.base.EVAL_COUNTERS`: one call per group
it dispatches to, never the dispatches nested inside that group's body.

Every group path mirrors the scalar arithmetic operation for operation,
so batched gradients agree bitwise with per-player scalar gradients —
the property that lets the lockstep hill climb reproduce the per-player
scalar climb exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .base import EVAL_COUNTERS, UtilityFunction, _as_point_matrix, numeric_gradient_batch
from .tabular import GridUtility2D, _bilinear_points

__all__ = ["BatchedUtilitySet", "StackedGrids"]


class StackedGrids:
    """Several same-shape 2-D grid utilities fused into one value tensor.

    Every grid contributes its own axes — only the sample *counts* must
    match — so one stack covers a whole heterogeneous-workload chip even
    though each app's power axis is scaled differently.
    """

    def __init__(self, grids: Sequence[GridUtility2D]):
        self.xs = np.stack([g.xs for g in grids])          # (G, nx)
        self.ys = np.stack([g.ys for g in grids])          # (G, ny)
        self.values = np.stack([g.values for g in grids])  # (G, nx, ny)

    def value_points(self, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Values of ``points[k]`` under grid ``owners[k]``.

        :func:`~repro.utility.tabular._bilinear_points` over the stack,
        the elementwise mirror of :meth:`GridUtility2D.value`.
        """
        return _bilinear_points(self.xs, self.ys, self.values, points, owners)

    def gradient_points(self, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Numeric gradients of ``points[k]`` under grid ``owners[k]``.

        :func:`~repro.utility.base.numeric_gradient_batch` — the batched
        mirror of :class:`GridUtility2D`'s scalar gradient — with all
        ``4K`` probes evaluated in one :meth:`value_points` call.  The
        probes come in ``2M`` blocks of ``K`` rows, so their owners are
        ``owners`` tiled ``2M`` times.
        """
        probe_owners = np.tile(owners, 2 * points.shape[1])
        return numeric_gradient_batch(
            lambda probes: self.value_points(probes, probe_owners), points
        )


#: Group kinds in a compiled plan.
_STACKED = 0
_SHARED = 1


class BatchedUtilitySet:
    """A compiled batched evaluator for a fixed utility list.

    Build once per equilibrium search (the player list is fixed for the
    search's lifetime), then call :meth:`gradients` every lockstep
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
        self._slot_of = np.zeros(len(self.utilities), dtype=np.intp)
        self._groups: List[tuple] = []
        self._compile()

    def _compile(self) -> None:
        # Stackable 2-D grids, one stack per grid shape (degenerate
        # single-sample axes take the np.interp branches in the scalar
        # path, so those grids stay out); same-object grids share a slot.
        stacks: dict = {}
        remaining: List[int] = []
        for idx, utility in enumerate(self.utilities):
            if (
                isinstance(utility, GridUtility2D)
                and utility.xs.size > 1
                and utility.ys.size > 1
            ):
                members, slot_by_id, rows = stacks.setdefault(
                    utility.values.shape, ([], {}, [])
                )
                slot = slot_by_id.get(id(utility))
                if slot is None:
                    slot = len(members)
                    slot_by_id[id(utility)] = slot
                    members.append(utility)
                rows.append(idx)
                self._slot_of[idx] = slot
            else:
                remaining.append(idx)

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
        """One vectorized call per group holding any of ``players``.

        Counts each group once: a group with a vectorized body as one
        batched call covering its rows, a group that loops the scalar
        method as one scalar call per row.
        """
        allocations = _as_point_matrix(allocations, self.num_resources)
        if players is None:
            players = np.arange(allocations.shape[0])
        out = np.empty_like(allocations) if gradient else np.empty(allocations.shape[0])
        group_of = self._group_of[players]
        if len(self._groups) == 1:
            selections = [np.arange(players.size)]
        else:
            selections = [
                np.flatnonzero(group_of == g) for g in range(len(self._groups))
            ]
        for group, rows in zip(self._groups, selections):
            if rows.size == 0:
                continue
            kind, evaluator = group
            if kind == _STACKED:
                points = evaluator.gradient_points if gradient else evaluator.value_points
                out[rows] = points(allocations[rows], self._slot_of[players[rows]])
                vectorized = True
            else:
                batch = evaluator.gradient_batch if gradient else evaluator.value_batch
                out[rows] = batch(allocations[rows])
                body = evaluator._gradient_batch if gradient else evaluator._value_batch
                vectorized = body is not None
            if vectorized:
                if gradient:
                    EVAL_COUNTERS.batch_gradient_calls += 1
                else:
                    EVAL_COUNTERS.batch_value_calls += 1
                EVAL_COUNTERS.batch_points += rows.size
            elif gradient:
                EVAL_COUNTERS.scalar_gradient_calls += rows.size
            else:
                EVAL_COUNTERS.scalar_value_calls += rows.size
        return out
