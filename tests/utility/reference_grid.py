"""Scalar reference for :meth:`GridUtility2D.value` on numpy scalars.

The straightforward reading of bilinear interpolation: ``np.clip`` to
the grid's box, ``np.searchsorted`` for the cell, and the four-term
blend on numpy float64 scalars.  The library's Python-float lookup must
return exactly these bits; the tests compare against it.
"""

from __future__ import annotations

import numpy as np


def scalar_grid_value(grid, allocation) -> float:
    """``grid.value(allocation)`` computed on numpy scalars."""
    x = float(np.clip(allocation[0], grid.xs[0], grid.xs[-1]))
    y = float(np.clip(allocation[1], grid.ys[0], grid.ys[-1]))
    i = int(np.clip(np.searchsorted(grid.xs, x, side="right") - 1, 0, grid.xs.size - 2)) \
        if grid.xs.size > 1 else 0
    j = int(np.clip(np.searchsorted(grid.ys, y, side="right") - 1, 0, grid.ys.size - 2)) \
        if grid.ys.size > 1 else 0
    if grid.xs.size == 1 and grid.ys.size == 1:
        return float(grid.values[0, 0])
    if grid.xs.size == 1:
        return float(np.interp(y, grid.ys, grid.values[0, :]))
    if grid.ys.size == 1:
        return float(np.interp(x, grid.xs, grid.values[:, 0]))
    x0, x1 = grid.xs[i], grid.xs[i + 1]
    y0, y1 = grid.ys[j], grid.ys[j + 1]
    tx = (x - x0) / (x1 - x0)
    ty = (y - y0) / (y1 - y0)
    v00, v01 = grid.values[i, j], grid.values[i, j + 1]
    v10, v11 = grid.values[i + 1, j], grid.values[i + 1, j + 1]
    return float(
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )
