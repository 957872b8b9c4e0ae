"""Tabulated utility functions built from sampled profiles.

The multicore substrate produces utilities as samples on a grid (IPC at
each cache-size x frequency point, Section 6's 90-point profile).
:class:`GridUtility2D` wraps such samples into a
:class:`~repro.utility.base.UtilityFunction` the market can consume, by
bilinear interpolation over the 2-D sample grid of joint cache x power
utilities; :class:`StackedGrids` evaluates many such grids in one call.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from typing import Callable, List, Sequence

import numpy as np

from .base import _GRADIENT_EPS, UtilityFunction, numeric_gradient_batch

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
        if not (np.all(np.diff(self.xs) > 0) and np.all(np.diff(self.ys) > 0)):
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
        self.num_grids, self.n = num_grids, n
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

    def lists(self) -> List[tuple]:
        """Each grid's ``(knots, widths)`` as lists; one pair serves
        every grid of a shared axis."""
        knots, widths, n = self.knots.tolist(), self.widths.tolist(), self.n
        if self.shared:
            return [(knots, widths)] * self.num_grids
        return [
            (knots[g * n:(g + 1) * n], widths[g * n:(g + 1) * n - 1])
            for g in range(self.num_grids)
        ]


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
        #: The Equation 7 kernel of :meth:`bid_marginals`, compiled on
        #: the first call.
        self._kernel: "Callable | None" = None

    def bid_marginals(
        self,
        slots: List[int],
        bids: List[List[float]],
        others: List[List[float]],
        capacities: List[float],
        rates: List[float],
    ) -> List[List[float]]:
        """Equation 7 marginals of bid row ``bids[k]`` under grid ``slots[k]``.

        A Python-float kernel for the hill climb's few rows per
        iteration, where a numpy dispatch costs more than the rows.  It
        runs Equations 2 and 7 on the bids, ``others[k]`` (the other
        players' bids) and ``capacities``, with ``rates`` the first-bid
        rates that replace an infinite ``dr_j/db_j``; then the central
        differences of
        :func:`~repro.utility.base.numeric_gradient_batch` over
        :meth:`value_points`'s clamp, cell lookup and blend; and returns
        ``dU/dr * dr/db``.  Each operation is the numpy path's, in its
        order, so every row equals row ``k`` of
        :func:`~repro.core.player.marginal_utility_of_bids_batch` bit for
        bit, a NaN's payload aside (:func:`_marginal_kernel`).  The
        kernel is compiled from the stack's tables on the first call and
        held by the stack alone, so it goes with the stack.
        """
        if self._kernel is None:
            # Values as packed doubles, copied as bytes: a list would
            # hold a float object per value, three times the memory, for
            # a few % of speed.
            values = self._values.reshape(self._x.num_grids, -1)
            tables = [
                (xs, x_widths, ys, y_widths, array("d", grid.tobytes()))
                for (xs, x_widths), (ys, y_widths), grid in zip(
                    self._x.lists(), self._y.lists(), values
                )
            ]
            self._kernel = _marginal_kernel(tables, self._ny)
        return self._kernel(slots, bids, others, capacities, rates)

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


#: Above the largest float: only an infinity compares beyond it.
_MAX_FLOAT = sys.float_info.max


def _marginal_kernel(tables: List[tuple], ny: int) -> Callable:
    """The Python-float body of :meth:`StackedGrids.bid_marginals`.

    ``tables[g]`` is grid ``g``'s ``(xs, x_widths, ys, y_widths,
    values)``: its axes and cell widths as lists, and its values as
    packed doubles, flat in ``x * ny + y`` order.  Each step mirrors its numpy
    form in ``_equation_2_and_7`` (:mod:`repro.utility.batch`),
    :func:`~repro.utility.base.numeric_gradient_batch` and
    :meth:`StackedGrids.value_points`, in the same order: products and
    sums associate left to right as there, ``1.0 - t`` is numpy's
    ``1 - t``, comparisons are written so that NaN takes numpy's branch,
    and a division numpy would make by zero is decided before Python
    could raise.  NaN lands in the same entries as there; only where two
    NaNs meet in a product or sum may the payload differ, as CPython
    keeps the second operand's and numpy the first's.  The steps are
    written out in line: this loop is the climb's whole per-row cost.
    """
    eps, big, inf = _GRADIENT_EPS, _MAX_FLOAT, math.inf
    last_x, last_y = len(tables[0][0]) - 1, len(tables[0][2]) - 1

    def kernel(slots, bids, others, capacities, rates):
        c0, c1 = capacities
        rate0, rate1 = rates
        out = []
        for g, (b0, b1), (y0, y1) in zip(slots, bids, others):
            xs, x_widths, ys, y_widths, v = tables[g]
            # Equations 2 and 7 per resource: the allocation r and
            # dr/db, whose infinities (nobody bids; overflow; a square
            # that underflowed to 0) become the first-bid rate.
            total = b0 + y0
            if total > 0.0:
                square, numerator = total * total, y0 * c0
                if square > 0.0:
                    k0 = numerator / square
                    if k0 > big or k0 < -big:
                        k0 = rate0
                else:
                    # numpy's numerator / 0.0: +-inf, else (0 or NaN) the
                    # NaN this product gives.
                    k0 = rate0 if numerator > 0.0 or numerator < 0.0 else numerator * inf
                r0 = b0 / total * c0
            else:
                r0, k0 = 0.0 * c0, rate0
            total = b1 + y1
            if total > 0.0:
                square, numerator = total * total, y1 * c1
                if square > 0.0:
                    k1 = numerator / square
                    if k1 > big or k1 < -big:
                        k1 = rate1
                else:
                    # numpy's numerator / 0.0: +-inf, else (0 or NaN) the
                    # NaN this product gives.
                    k1 = rate1 if numerator > 0.0 or numerator < 0.0 else numerator * inf
                r1 = b1 / total * c1
            else:
                r1, k1 = 0.0 * c1, rate1
            # The cells of the point r: clamp as np.clip does (NaN
            # passes, an end keeps its own bits), then the clamped right
            # bisection, where NaN finds the last cell as searchsorted
            # does.
            u = r0
            if u < xs[0]:
                u = xs[0]
            elif u > xs[last_x]:
                u = xs[last_x]
            i = bisect_right(xs, u, 1, last_x) - 1
            tx = (u - xs[i]) / x_widths[i]
            u = r1
            if u < ys[0]:
                u = ys[0]
            elif u > ys[last_y]:
                u = ys[last_y]
            j = bisect_right(ys, u, 1, last_y) - 1
            ty = (u - ys[j]) / y_widths[j]
            # dU/dr_0: central differences along x at step s, or a
            # forward difference from r itself when r - s < 0.
            a = abs(r0)
            s = eps * (1.0 if a <= 1.0 else a)
            u = r0 + s
            if u < xs[0]:
                u = xs[0]
            elif u > xs[last_x]:
                u = xs[last_x]
            hi = bisect_right(xs, u, 1, last_x) - 1
            t_hi = (u - xs[hi]) / x_widths[hi]
            if r0 - s < 0.0:
                lo, t_lo, span = i, tx, s
            else:
                u = r0 - s
                if u < xs[0]:
                    u = xs[0]
                elif u > xs[last_x]:
                    u = xs[last_x]
                lo = bisect_right(xs, u, 1, last_x) - 1
                t_lo = (u - xs[lo]) / x_widths[lo]
                span = 2.0 * s
            # Each probe's bilinear blend of the values at its cell's
            # (i, j), (i+1, j), (i, j+1) and (i+1, j+1) knots.
            sy = 1.0 - ty
            k = hi * ny + j
            sx = 1.0 - t_hi
            upper = (
                v[k] * sx * sy + v[k + ny] * t_hi * sy
                + v[k + 1] * sx * ty + v[k + ny + 1] * t_hi * ty
            )
            k = lo * ny + j
            sx = 1.0 - t_lo
            lower = (
                v[k] * sx * sy + v[k + ny] * t_lo * sy
                + v[k + 1] * sx * ty + v[k + ny + 1] * t_lo * ty
            )
            d0 = (upper - lower) / span
            # dU/dr_1 likewise along y.
            a = abs(r1)
            s = eps * (1.0 if a <= 1.0 else a)
            u = r1 + s
            if u < ys[0]:
                u = ys[0]
            elif u > ys[last_y]:
                u = ys[last_y]
            hi = bisect_right(ys, u, 1, last_y) - 1
            t_hi = (u - ys[hi]) / y_widths[hi]
            if r1 - s < 0.0:
                lo, t_lo, span = j, ty, s
            else:
                u = r1 - s
                if u < ys[0]:
                    u = ys[0]
                elif u > ys[last_y]:
                    u = ys[last_y]
                lo = bisect_right(ys, u, 1, last_y) - 1
                t_lo = (u - ys[lo]) / y_widths[lo]
                span = 2.0 * s
            sx = 1.0 - tx
            k = i * ny + hi
            sy = 1.0 - t_hi
            upper = (
                v[k] * sx * sy + v[k + ny] * tx * sy
                + v[k + 1] * sx * t_hi + v[k + ny + 1] * tx * t_hi
            )
            k = i * ny + lo
            sy = 1.0 - t_lo
            lower = (
                v[k] * sx * sy + v[k + ny] * tx * sy
                + v[k + 1] * sx * t_lo + v[k + ny + 1] * tx * t_lo
            )
            d1 = (upper - lower) / span
            out.append([d0 * k0, d1 * k1])
        return out

    return kernel
