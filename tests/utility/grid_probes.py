"""Grid probes of concavity and monotonicity for utility tests."""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Slack of the monotonicity and concavity probes.
_GRID_TOLERANCE = 1e-9


def is_nondecreasing_on_grid(func, grids: Sequence[np.ndarray]) -> bool:
    """Check that ``func`` is non-decreasing along each axis of a grid.

    ``grids`` holds one sorted 1-D sample array per resource.  Every grid
    point is evaluated; the check passes if increasing any single
    coordinate never decreases utility by more than ``1e-9``.
    """
    values = _tabulate(func, grids)
    for axis in range(values.ndim):
        diffs = np.diff(values, axis=axis)
        if np.any(diffs < -_GRID_TOLERANCE):
            return False
    return True


def is_concave_on_grid(func, grids: Sequence[np.ndarray]) -> bool:
    """Check midpoint concavity of ``func`` on the cartesian grid.

    For every pair of grid points ``a, b`` whose midpoint is evaluable we
    require ``f((a+b)/2) >= (f(a)+f(b))/2 - 1e-9``.  For 1-D grids this
    reduces to the standard second-difference test, which we use directly
    because it is much cheaper.
    """
    if len(grids) == 1:
        xs = np.asarray(grids[0], dtype=float)
        ys = np.array([func((x,)) for x in xs])
        # Slopes between consecutive samples must be non-increasing.
        slopes = np.diff(ys) / np.diff(xs)
        return bool(np.all(np.diff(slopes) <= _GRID_TOLERANCE))

    points = _grid_points(grids)
    values = np.array([func(p) for p in points])
    rng = np.random.default_rng(0)
    n = len(points)
    # Exhaustive pairing is quadratic; sample pairs for large grids.
    max_pairs = 2000
    if n * (n - 1) // 2 <= max_pairs:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = [tuple(sorted(rng.choice(n, size=2, replace=False))) for _ in range(max_pairs)]
    for i, j in pairs:
        mid = (points[i] + points[j]) / 2.0
        if func(mid) < (values[i] + values[j]) / 2.0 - _GRID_TOLERANCE:
            return False
    return True


def _grid_points(grids: Sequence[np.ndarray]) -> np.ndarray:
    mesh = np.meshgrid(*[np.asarray(g, dtype=float) for g in grids], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _tabulate(func, grids: Sequence[np.ndarray]) -> np.ndarray:
    points = _grid_points(grids)
    shape = tuple(len(g) for g in grids)
    return np.array([func(p) for p in points]).reshape(shape)
