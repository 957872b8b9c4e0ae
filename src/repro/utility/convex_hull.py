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
decreasing.  :func:`hull_lines` runs that scan on many lines in
lockstep, which is how a utility grid's cache columns and power rows
are hulled together.  A line where no adjacent knot triple fails the
chain's concavity test is its own hull and skips the scan.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["upper_convex_hull", "hull_lines", "PiecewiseLinearConcave"]


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
    if not np.all(np.diff(xs) > 0):
        raise ValueError("xs must be strictly increasing")
    x, y = xs[None, :], ys[None, :]
    vertex = _lockstep_chain(x, y)[0] if _chained(x, y)[0] else np.ones(xs.size, bool)
    return xs[vertex], ys[vertex]


def hull_lines(xs: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Every row of ``lines`` replaced by its upper hull, at its own knots.

    ``lines`` is ``(L, K)``; ``xs`` holds each line's strictly
    increasing knots, ``(L, K)`` or one shared ``(K,)`` axis.  A line
    that :func:`_chained` does not flag is its own hull and is returned
    as it came; only the others run :func:`_lockstep_chain`.  A hull
    vertex keeps its own value; every other knot takes ``np.interp``'s
    value between the two vertices around it, ``slope * (x - xa) + ya``
    with ``np.interp``'s fallbacks when that is NaN, so each row equals
    ``np.interp(x, *upper_convex_hull(x, row))`` bit for bit.
    """
    y = np.asarray(lines, dtype=float)
    x = np.asarray(xs, dtype=float)
    out = y.copy()
    rows = np.flatnonzero(_chained(x, y))
    if not rows.size:
        return out
    x, y = np.broadcast_to(x, y.shape)[rows], y[rows]
    vertex = _lockstep_chain(x, y)
    inner = ~vertex
    # The vertices around each knot: the first and last knot always are.
    k = y.shape[1]
    knots = np.arange(k)
    prev = np.maximum.accumulate(np.where(vertex, knots, 0), axis=1)[inner]
    after = np.minimum.accumulate(np.where(vertex, knots, k - 1)[:, ::-1], axis=1)[:, ::-1]
    after = after[inner]
    row, col = np.nonzero(inner)
    xa, ya = x[row, prev], y[row, prev]
    xb, yb = x[row, after], y[row, after]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        slope = (yb - ya) / (xb - xa)
        fit = slope * (x[inner] - xa) + ya
        nan = np.isnan(fit)
        if nan.any():
            back = slope * (x[inner] - xb) + yb
            back = np.where(np.isnan(back) & (ya == yb), ya, back)
            fit = np.where(nan, back, fit)
    out[rows[row], col] = fit
    return out


def _chained(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows of ``(x, y)`` whose monotone chain pops a knot.

    Runs the chain's pop test, with its operand order, on every adjacent
    knot triple of every row at once; ``x`` is ``(L, K)`` or one shared
    ``(K,)`` axis.  A row where no triple pops is its own hull: the
    chain would push every knot and pop none.  Rows of fewer than three
    knots never pop.
    """
    xa, ya = x[..., :-2], y[:, :-2]
    with np.errstate(invalid="ignore", over="ignore"):
        pops = (x[..., 1:-1] - xa) * (y[:, 2:] - ya) - (y[:, 1:-1] - ya) * (x[..., 2:] - xa) >= 0.0
    return pops.any(axis=1)


def _lockstep_chain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The monotone chain on every row of ``(x, y)`` at once.

    Returns the ``(L, K)`` mask of each row's upper-hull vertices; its
    callers pass only the rows :func:`_chained` flags, so ``K >= 3``.
    The sequential chain pops the top ``b`` while it lies (weakly) below
    the chord from the one beneath it, ``a``, to the next point ``c``:
    ``(xb - xa) * (yc - ya) - (yb - ya) * (xc - xa) >= 0``.  Those
    triples are fixed by the stack before ``c`` arrives, so the test runs
    on every adjacent stack pair at once, and ``c`` lands in the slot
    just above the highest pair that keeps its top.  Stacks are stored
    depth-major, so every step works on contiguous blocks.
    """
    num, k = y.shape
    xt, yt = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    lines = np.arange(num)
    depth = np.arange(k)[:, None]
    sx, sy = np.zeros((k, num)), np.zeros((k, num))
    flat_x, flat_y = sx.reshape(-1), sy.reshape(-1)
    # The stack slot each knot landed in; the first two land in 0 and 1.
    slot = np.zeros((k, num), dtype=np.intp)
    slot[:2], sx[:2], sy[:2] = depth[:2], xt[:2], yt[:2]
    last = slot[1].copy()
    # Huge and non-finite samples are valid input: their inf and NaN
    # intermediates decide the pop test as in scalar code, unwarned.
    with np.errstate(invalid="ignore", over="ignore"):
        for c in range(2, k):
            xc, yc = xt[c], yt[c]
            xa, ya = sx[: c - 1], sy[: c - 1]
            pops = (sx[1:c] - xa) * (yc - ya) - (sy[1:c] - ya) * (xc - xa) >= 0.0
            # Pair j (slots j, j + 1) is on the stack while j < last, and
            # keeps its top when it does not pop (False < True).
            kept = pops < (depth[: c - 1] < last)
            last = slot[c] = np.where(kept, depth[1:c], 0).max(axis=0) + 1
            at = last * num + lines
            flat_x[at], flat_y[at] = xc, yc
    # A knot stays on its stack unless a later knot lands at or below it.
    later = np.minimum.accumulate(slot[:0:-1], axis=0)[::-1]
    vertex = np.ones((k, num), dtype=bool)
    vertex[:-1] = slot[:-1] < later
    return vertex.T


class PiecewiseLinearConcave:
    """A concave piecewise-linear function defined by hull vertices.

    This is what the Talus layer plans shadow partitions from:
    continuous, non-decreasing (when built from a non-decreasing
    curve's hull) and concave, with O(log n) evaluation.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        self.xs, self.ys = upper_convex_hull(xs, ys)

    @property
    def points_of_interest(self) -> Tuple[np.ndarray, np.ndarray]:
        """The Talus PoIs: hull vertex coordinates ``(x, y)``."""
        return self.xs.copy(), self.ys.copy()

    def value(self, x: float) -> float:
        """The hull at ``x``, clamped to the end-point values outside.

        Below the first PoI the utility is the first sample's (a player
        can always leave capacity unused); above the last it saturates.
        """
        return float(np.interp(x, self.xs, self.ys))

    def bracketing_pois(self, x: float) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """The two neighbouring PoIs around ``x`` (Talus shadow targets)."""
        if x <= self.xs[0]:
            return (self.xs[0], self.ys[0]), (self.xs[0], self.ys[0])
        if x >= self.xs[-1]:
            return (self.xs[-1], self.ys[-1]), (self.xs[-1], self.ys[-1])
        hi = int(np.searchsorted(self.xs, x, side="right"))
        lo = hi - 1
        return (self.xs[lo], self.ys[lo]), (self.xs[hi], self.ys[hi])
