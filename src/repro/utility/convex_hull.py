"""Upper-convex-hull computation for sampled 1-D utility curves.

This is the mathematical heart of the Talus convexification step
(Section 4.1.1 of the paper): given a cache utility sampled at discrete
partition sizes — which may be cliffy and non-concave, like *mcf*'s
working-set step — derive the *upper convex hull* (the smallest concave
majorant through a subset of sample points).  The hull vertices are the
"points of interest" (PoIs); Talus realizes any allocation between two
PoIs by time/stream-interleaving two shadow partitions, which makes the
achievable utility exactly the linear interpolation between the PoIs.

The hull of a set of ``(x, y)`` samples is computed with a monotone-chain
scan, keeping the points whose incremental slopes are strictly
decreasing.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "upper_convex_hull", "hull_columns", "hull_interpolate", "PiecewiseLinearConcave"
]


def upper_convex_hull(
    xs: Sequence[float], ys: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the vertices of the upper convex hull of ``(xs, ys)``.

    ``xs`` must be strictly increasing.  The returned vertex arrays always
    include the first and last sample, and the piecewise-linear function
    through them is the least concave function that dominates every
    sample (``hull(x) >= y`` for all samples, with slopes non-increasing).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size != ys.size:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    if xs.size == 0:
        raise ValueError("need at least one sample")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing")
    if xs.size == 1:
        return xs.copy(), ys.copy()

    idx = np.array(_chain(xs.tolist(), ys.tolist()))
    return xs[idx], ys[idx]


def hull_columns(xs: np.ndarray, lines: np.ndarray) -> None:
    """Replace each column of ``lines`` (sampled at ``xs``) by its upper hull.

    Columns whose consecutive triples all turn strictly down keep every
    point in the chain, and ``np.interp`` at its own knots returns them
    exactly, so one array test finds and skips them.
    """
    xa, xb, xc = xs[:-2, None], xs[1:-1, None], xs[2:, None]
    ya, yb, yc = lines[:-2], lines[1:-1], lines[2:]
    turning = np.any((xb - xa) * (yc - ya) - (yb - ya) * (xc - xa) >= 0.0, axis=0)
    knots = xs.tolist()
    for j in np.flatnonzero(turning):
        idx = _chain(knots, lines[:, j].tolist())
        lines[:, j] = np.interp(xs, xs[idx], lines[idx, j])


def _chain(xs: list, ys: list) -> list:
    """Monotone chain over Python floats: the upper-hull vertex indices.

    Pops the top ``b`` while it lies (weakly) below the chord from ``a``
    to the next point ``c``; :func:`hull_columns` vectorizes that test.
    """
    stack: list[int] = []
    for c, (xc, yc) in enumerate(zip(xs, ys)):
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            xa, ya = xs[a], ys[a]
            if (xs[b] - xa) * (yc - ya) - (ys[b] - ya) * (xc - xa) >= 0.0:
                stack.pop()
            else:
                break
        stack.append(c)
    return stack


def hull_interpolate(
    hull_x: np.ndarray, hull_y: np.ndarray, x: float
) -> float:
    """Evaluate the piecewise-linear hull at ``x``.

    Values outside the sampled range are clamped to the end-point values:
    below the first PoI the utility is the first sample's (a player can
    always leave capacity unused), above the last PoI it saturates.
    """
    if x <= hull_x[0]:
        return float(hull_y[0])
    if x >= hull_x[-1]:
        return float(hull_y[-1])
    return float(np.interp(x, hull_x, hull_y))


class PiecewiseLinearConcave:
    """A concave piecewise-linear function defined by hull vertices.

    This is what the Talus layer hands to the market: continuous,
    non-decreasing (when built from a non-decreasing curve's hull) and
    concave, with O(log n) evaluation and exact sub-gradients.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        hx, hy = upper_convex_hull(xs, ys)
        self.xs = hx
        self.ys = hy
        # Slopes of each hull segment; one fewer entry than vertices.
        if hx.size > 1:
            self.slopes = np.diff(hy) / np.diff(hx)
        else:
            self.slopes = np.zeros(0)

    @property
    def points_of_interest(self) -> Tuple[np.ndarray, np.ndarray]:
        """The Talus PoIs: hull vertex coordinates ``(x, y)``."""
        return self.xs.copy(), self.ys.copy()

    def value(self, x: float) -> float:
        return hull_interpolate(self.xs, self.ys, x)

    def value_batch(self, x: np.ndarray) -> np.ndarray:
        """Hull values at a 1-D batch of points.

        ``np.interp`` clamps to the end-point values exactly like
        :func:`hull_interpolate`, so this is the scalar path vectorized —
        the two agree bitwise.
        """
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ys)

    def derivative_batch(self, x: np.ndarray) -> np.ndarray:
        """Right-derivatives at a 1-D batch of points (0 past the last PoI)."""
        x = np.asarray(x, dtype=float)
        if self.slopes.size == 0:
            return np.zeros_like(x)
        seg = np.clip(
            np.searchsorted(self.xs, x, side="right") - 1, 0, self.slopes.size - 1
        )
        return np.where(
            x >= self.xs[-1],
            0.0,
            np.where(x < self.xs[0], self.slopes[0], self.slopes[seg]),
        )

    def derivative(self, x: float) -> float:
        """Right-derivative at ``x`` (0 beyond the last vertex).

        Using the right-derivative makes the marginal utility reported at
        a vertex the gain from *adding* resources, which is what the
        bidding hill climb and ReBudget's lambda comparisons need.
        """
        if self.slopes.size == 0 or x >= self.xs[-1]:
            return 0.0
        if x < self.xs[0]:
            return float(self.slopes[0])
        seg = int(np.searchsorted(self.xs, x, side="right") - 1)
        seg = min(seg, self.slopes.size - 1)
        return float(self.slopes[seg])

    def bracketing_pois(self, x: float) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """The two neighbouring PoIs around ``x`` (Talus shadow targets)."""
        if x <= self.xs[0]:
            return (self.xs[0], self.ys[0]), (self.xs[0], self.ys[0])
        if x >= self.xs[-1]:
            return (self.xs[-1], self.ys[-1]), (self.xs[-1], self.ys[-1])
        hi = int(np.searchsorted(self.xs, x, side="right"))
        lo = hi - 1
        return (self.xs[lo], self.ys[lo]), (self.xs[hi], self.ys[hi])

    def __call__(self, x: float) -> float:
        return self.value(x)
