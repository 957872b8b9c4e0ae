"""Tabulated utility functions built from sampled profiles.

The multicore substrate produces utilities as samples on a grid (IPC at
each cache-size x frequency point, Section 6's 90-point profile).  The
classes here wrap such samples into :class:`~repro.utility.base.UtilityFunction`
objects the market can consume:

* :class:`TabularUtility1D` — raw linear interpolation of a 1-D curve
  (possibly non-concave; what the cache looks like *before* Talus).
* :class:`HullUtility1D` — the Talus-convexified version.
* :class:`GridUtility2D` — bilinear interpolation over a 2-D sample grid,
  used for joint cache x power utilities.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import UtilityFunction, numeric_gradient_batch
from .convex_hull import PiecewiseLinearConcave

__all__ = ["TabularUtility1D", "HullUtility1D", "GridUtility2D", "StackedGrids"]


class TabularUtility1D(UtilityFunction):
    """Linear interpolation through ``(xs, ys)`` samples, clamped outside.

    Makes no concavity promise — it faithfully represents cliffy cache
    curves.  Use :class:`HullUtility1D` when the market needs concavity.
    """

    num_resources = 1

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.size != self.ys.size or self.xs.size == 0:
            raise ValueError("xs and ys must be non-empty 1-D arrays of equal length")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("xs must be strictly increasing")

    def value(self, allocation: Sequence[float]) -> float:
        x = float(allocation[0])
        return float(np.interp(x, self.xs, self.ys))

    def gradient(self, allocation: Sequence[float]) -> np.ndarray:
        x = float(allocation[0])
        if x >= self.xs[-1] or self.xs.size == 1:
            return np.array([0.0])
        if x < self.xs[0]:
            return np.array([0.0])
        seg = int(np.searchsorted(self.xs, x, side="right") - 1)
        seg = min(seg, self.xs.size - 2)
        slope = (self.ys[seg + 1] - self.ys[seg]) / (self.xs[seg + 1] - self.xs[seg])
        return np.array([slope])

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        return np.interp(points[:, 0], self.xs, self.ys)

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        x = points[:, 0]
        if self.xs.size == 1:
            return np.zeros_like(points)
        seg = np.clip(
            np.searchsorted(self.xs, x, side="right") - 1, 0, self.xs.size - 2
        )
        slopes = (self.ys[seg + 1] - self.ys[seg]) / (self.xs[seg + 1] - self.xs[seg])
        inside = (x >= self.xs[0]) & (x < self.xs[-1])
        return np.where(inside, slopes, 0.0)[:, None]

    def __repr__(self) -> str:
        return f"TabularUtility1D({self.xs.size} samples on [{self.xs[0]}, {self.xs[-1]}])"


class HullUtility1D(UtilityFunction):
    """The upper convex hull of a sampled curve — concave and continuous.

    This is the utility the market sees after Talus: linear between
    points of interest, saturating past the last one.
    """

    num_resources = 1

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        self.hull = PiecewiseLinearConcave(xs, ys)

    def value(self, allocation: Sequence[float]) -> float:
        return self.hull.value(float(allocation[0]))

    def gradient(self, allocation: Sequence[float]) -> np.ndarray:
        return np.array([self.hull.derivative(float(allocation[0]))])

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        return self.hull.value_batch(points[:, 0])

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        return self.hull.derivative_batch(points[:, 0])[:, None]

    @property
    def points_of_interest(self):
        return self.hull.points_of_interest

    def __repr__(self) -> str:
        xs, _ = self.hull.points_of_interest
        return f"HullUtility1D({xs.size} PoIs on [{xs[0]}, {xs[-1]}])"


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

    # The scalar methods are one-row batches: one bilinear body.
    def value(self, allocation: Sequence[float]) -> float:
        return self.value_batch(np.reshape(allocation, (1, 2))).item()

    def gradient(self, allocation: Sequence[float]) -> np.ndarray:
        return self.gradient_batch(np.reshape(allocation, (1, 2)))[0]

    def _value_batch(self, points: np.ndarray) -> np.ndarray:
        if self.xs.size == 1 and self.ys.size == 1:
            return np.full(points.shape[0], float(self.values[0, 0]))
        if self.xs.size == 1:
            yc = np.clip(points[:, 1], self.ys[0], self.ys[-1])
            return np.interp(yc, self.ys, self.values[0, :])
        if self.ys.size == 1:
            xc = np.clip(points[:, 0], self.xs[0], self.xs[-1])
            return np.interp(xc, self.xs, self.values[:, 0])
        owners = np.zeros(points.shape[0], dtype=np.intp)
        return StackedGrids([self]).value_points(points, owners)

    def _gradient_batch(self, points: np.ndarray) -> np.ndarray:
        # The generic numeric differentiator over value(), with all probe
        # points evaluated in one vectorized value_batch dispatch.
        return numeric_gradient_batch(self.value_batch, points)

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

        :func:`~repro.utility.base.numeric_gradient_batch` — the batched
        mirror of :class:`GridUtility2D`'s scalar gradient — with all
        ``2MK`` probes evaluated in one :meth:`value_points` call.  The
        probes come in ``2M`` blocks of ``K`` rows, so their owners are
        ``owners`` repeated ``2M`` times.
        """
        probe_owners = np.concatenate([owners] * (2 * points.shape[1]))
        return numeric_gradient_batch(
            lambda probes: self.value_points(probes, probe_owners), points
        )
