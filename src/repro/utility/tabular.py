"""Tabulated utility functions built from sampled profiles.

The multicore substrate produces utilities as samples on a grid (IPC at
each cache-size x frequency point, Section 6's 90-point profile).
:class:`GridUtility2D` wraps such samples into a
:class:`~repro.utility.base.UtilityFunction` the market can consume, by
bilinear interpolation over the 2-D sample grid of joint cache x power
utilities; :class:`StackedGrids` evaluates many such grids in one call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import UtilityFunction, numeric_gradient_batch

__all__ = ["GridUtility2D", "StackedGrids"]


class GridUtility2D(UtilityFunction):
    """Bilinear interpolation of samples on a 2-D grid.

    ``values[i, j]`` is the utility at ``(xs[i], ys[j])``.  Evaluation is
    clamped to the grid's bounding box, so the function saturates (stays
    constant) outside the sampled range — matching the paper's assumption
    that more than 16 cache regions yields no additional utility.
    """

    num_resources = 2

    def __init__(self, xs: Sequence[float], ys: Sequence[float], values: np.ndarray):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.xs.size, self.ys.size):
            raise ValueError("values must have shape (len(xs), len(ys))")
        if np.any(np.diff(self.xs) <= 0) or np.any(np.diff(self.ys) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        #: The one-grid kernel of direct calls, compiled on the first.
        self._stack: "StackedGrids | None" = None

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        if self.xs.size == 1 and self.ys.size == 1:
            return np.full(points.shape[0], float(self.values[0, 0]))
        if self.xs.size == 1:
            yc = np.clip(points[:, 1], self.ys[0], self.ys[-1])
            return np.interp(yc, self.ys, self.values[0, :])
        if self.ys.size == 1:
            xc = np.clip(points[:, 0], self.xs[0], self.xs[-1])
            return np.interp(xc, self.xs, self.values[:, 0])
        if self._stack is None:
            self._stack = StackedGrids([self])
        owners = np.zeros(points.shape[0], dtype=np.intp)
        return self._stack.value_points(points, owners)

    def __repr__(self) -> str:
        return f"GridUtility2D({self.xs.size}x{self.ys.size} grid)"


class _AxisCells:
    """Cell lookup along one axis of a stack of same-length grid axes.

    ``axes`` is ``(G, n)``: one strictly increasing axis per grid, with
    ``n >= 2``.  :meth:`cells` clamps one coordinate per row to its axis
    and finds its cell by a clamped right bisection.  When every
    grid's axis is bitwise the same (the cache axis of every core of a
    chip) one shared axis serves all rows and the cell index is local to
    the grid.  Otherwise the axes are concatenated into one flat array
    sorted by the lexicographic key ``complex(grid, value)``, searched
    with each row's ``complex(owner, coordinate)``, and the cell index is
    global (``grid * n + local``).
    """

    def __init__(self, axes: np.ndarray):
        num_grids, n = axes.shape
        self.shared = axes.tobytes() == axes[0].tobytes() * num_grids
        if self.shared:
            self.knots = axes[0]
            self.lo, self.hi, self.top = axes[0, 0], axes[0, -1], n - 2
        else:
            self.knots = axes.ravel()
            self.lo, self.hi = axes[:, 0], axes[:, -1]
            self.top = np.arange(n - 2, num_grids * n, n)
            self.keys = (np.arange(num_grids)[:, None] + 1j * axes).ravel()
        # Cell widths ``x1 - x0``; an entry that spans two grids of the
        # flat array is never looked up.
        self.widths = self.knots[1:] - self.knots[:-1]

    def cells(self, u: np.ndarray, owners: np.ndarray):
        """Cell index and in-cell fraction of coordinate ``u[k]`` on grid ``owners[k]``."""
        if self.shared:
            lo, hi, top = self.lo, self.hi, self.top
        else:
            lo, hi, top = self.lo[owners], self.hi[owners], self.top[owners]
        # The strict comparisons clamp as np.clip does: NaN passes
        # through and a coordinate equal to an end (-0.0 at 0.0 too)
        # keeps its own bits.
        u = np.where(u < lo, lo, u)
        u = np.where(u > hi, hi, u)
        if self.shared:
            index = self.knots.searchsorted(u, side="right")
        else:
            index = self.keys.searchsorted(owners + 1j * u, side="right")
        index -= 1
        np.minimum(index, top, out=index)
        return index, (u - self.knots.take(index)) / self.widths.take(index)


class StackedGrids:
    """Several same-shape 2-D grid utilities fused into one lookup table.

    Every grid contributes its own axes — only the sample *counts* must
    match — so one stack covers a whole heterogeneous-workload chip even
    though each app's power axis is scaled differently.  Compiling the
    stack precomputes everything :meth:`value_points` needs besides the
    points: one :class:`_AxisCells` per axis and the flat ``(G, nx, ny)``
    value tensor, in which a row's cell starts at ``x_index * ny +
    y_index + owner * owner_stride``.
    """

    def __init__(self, grids: Sequence[GridUtility2D]):
        num_grids = len(grids)
        nx, ny = grids[0].values.shape
        # Flat (G * nx * ny) values and (G, n) axes.
        self._values = np.concatenate([g.values for g in grids]).ravel()
        self._x = _AxisCells(np.concatenate([g.xs for g in grids]).reshape(num_grids, nx))
        self._y = _AxisCells(np.concatenate([g.ys for g in grids]).reshape(num_grids, ny))
        self._ny = ny
        # A global index already carries its grid's offset (grid * nx for
        # x, grid * ny for y); owner_stride supplies or cancels the rest
        # of grid * nx * ny.
        self._owner_stride = (nx * ny if self._x.shared else 0) - (
            0 if self._y.shared else ny
        )
        #: Offsets of the (i, j), (i+1, j), (i, j+1), (i+1, j+1) corners.
        self._corners = np.array([0, ny, 1, ny + 1])

    def value_points(self, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Values of ``points[k]`` under grid ``owners[k]``.

        The one bilinear body: clamp, clamped cell lookup and the
        four-term blend, elementwise.  Row ``k`` depends on that row
        alone, so it equals the one-row ``grids[owners[k]].value`` bit
        for bit.
        """
        i, tx = self._x.cells(points[:, 0], owners)
        j, ty = self._y.cells(points[:, 1], owners)
        cell = i * self._ny + j
        if self._owner_stride:
            cell += owners * self._owner_stride
        corners = self._values.take(cell[:, None] + self._corners)
        v00, v10, v01, v11 = corners.T
        sx, sy = 1 - tx, 1 - ty
        return v00 * sx * sy + v10 * tx * sy + v01 * sx * ty + v11 * tx * ty

    def gradient_points(self, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Numeric gradients of ``points[k]`` under grid ``owners[k]``.

        :func:`~repro.utility.base.numeric_gradient_batch` — the
        gradient body :class:`GridUtility2D` inherits — with all
        ``2MK`` probes evaluated in one :meth:`value_points` call.  The
        probes come in ``2M`` blocks of ``K`` rows, so their owners are
        ``owners`` repeated ``2M`` times.
        """
        probe_owners = np.concatenate([owners] * (2 * points.shape[1]))
        return numeric_gradient_batch(
            lambda probes: self.value_points(probes, probe_owners), points
        )
