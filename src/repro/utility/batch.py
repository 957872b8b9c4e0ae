"""Cross-player batched utility evaluation (the hot-loop fast path).

A market clearing evaluates marginal utilities for *every* player at
every hill-climb step.  The per-player scalar path pays a stack of tiny
Python/numpy calls per player per step; this module compiles a fixed
player list into a :class:`BatchedUtilitySet` that answers "gradients of
players ``I`` at allocations ``A``" in as few vectorized dispatches as
possible:

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
  utility; utilities without a vectorized override fall back to the
  scalar loop inside :meth:`UtilityFunction.gradient_batch`, so results
  are always defined (and counted honestly).

Every group path mirrors the scalar arithmetic operation for operation,
so batched gradients agree bitwise with per-player scalar gradients —
the property that lets the lockstep hill climb reproduce the per-player
scalar climb exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .base import EVAL_COUNTERS, UtilityFunction, _GRADIENT_EPS
from .tabular import GridUtility2D

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

        Mirrors :meth:`GridUtility2D.value` (clamp, clamped-index lookup,
        four-term bilinear blend) elementwise.  The cell index uses a
        broadcast count ``sum(axis <= x)`` — exactly
        ``searchsorted(axis, x, side="right")`` for a sorted axis — since
        numpy's searchsorted cannot look up a different axis per point.
        """
        EVAL_COUNTERS.batch_value_calls += 1
        EVAL_COUNTERS.batch_points += points.shape[0]
        xs = self.xs[owners]                               # (K, nx)
        ys = self.ys[owners]                               # (K, ny)
        xc = np.clip(points[:, 0], xs[:, 0], xs[:, -1])
        yc = np.clip(points[:, 1], ys[:, 0], ys[:, -1])
        i = np.clip(np.sum(xs <= xc[:, None], axis=1) - 1, 0, xs.shape[1] - 2)
        j = np.clip(np.sum(ys <= yc[:, None], axis=1) - 1, 0, ys.shape[1] - 2)
        span = np.arange(points.shape[0])
        x0, x1 = xs[span, i], xs[span, i + 1]
        y0, y1 = ys[span, j], ys[span, j + 1]
        tx = (xc - x0) / (x1 - x0)
        ty = (yc - y0) / (y1 - y0)
        v00 = self.values[owners, i, j]
        v01 = self.values[owners, i, j + 1]
        v10 = self.values[owners, i + 1, j]
        v11 = self.values[owners, i + 1, j + 1]
        return (
            v00 * (1 - tx) * (1 - ty)
            + v10 * tx * (1 - ty)
            + v01 * (1 - tx) * ty
            + v11 * tx * ty
        )

    def gradient_points(self, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Numeric gradients of ``points[k]`` under grid ``owners[k]``.

        Mirrors :func:`~repro.utility.base.numeric_gradient` (the scalar
        default for :class:`GridUtility2D`): same relative step, same
        forward-difference fallback at zero, same operation order, with
        all ``4K`` probes evaluated in one :meth:`value_points` call.
        """
        EVAL_COUNTERS.batch_gradient_calls += 1
        EVAL_COUNTERS.batch_points += points.shape[0]
        n_points, n_dims = points.shape
        steps = _GRADIENT_EPS * np.maximum(1.0, np.abs(points))
        forward = points - steps < 0.0
        probes = np.empty((2 * n_dims * n_points, n_dims), dtype=float)
        for j in range(n_dims):
            hi = points.copy()
            hi[:, j] += steps[:, j]
            lo = points.copy()
            lo[:, j] -= np.where(forward[:, j], 0.0, steps[:, j])
            base = 2 * j * n_points
            probes[base : base + n_points] = hi
            probes[base + n_points : base + 2 * n_points] = lo
        values = self.value_points(probes, np.tile(owners, 2 * n_dims))
        grad = np.empty_like(points)
        for j in range(n_dims):
            base = 2 * j * n_points
            f_hi = values[base : base + n_points]
            f_lo = values[base + n_points : base + 2 * n_points]
            grad[:, j] = np.where(
                forward[:, j],
                (f_hi - f_lo) / steps[:, j],
                (f_hi - f_lo) / (2.0 * steps[:, j]),
            )
        return grad


#: Group kinds in a compiled plan.
_STACKED = 0
_SHARED = 1


class BatchedUtilitySet:
    """A compiled batched-gradient evaluator for a fixed utility list.

    Build once per equilibrium search (the player list is fixed for the
    search's lifetime), then call :meth:`gradients` every lockstep
    iteration with whatever subset of players is still climbing.
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
        allocations = np.asarray(allocations, dtype=float)
        if players is None:
            players = np.arange(allocations.shape[0])
        out = np.empty_like(allocations)
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
                out[rows] = evaluator.gradient_points(
                    allocations[rows], self._slot_of[players[rows]]
                )
            else:
                out[rows] = evaluator.gradient_batch(allocations[rows])
        return out
