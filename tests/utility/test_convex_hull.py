"""Upper-convex-hull tests, including hypothesis properties.

The hull is the mathematical core of Talus; these properties must hold
for every input: the hull dominates all samples, its slopes are
non-increasing, and it passes through the first and last sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utility.convex_hull import (
    PiecewiseLinearConcave,
    hull_lines,
    upper_convex_hull,
)


def _curves(min_size=1, max_size=40):
    """Strategy: strictly increasing xs with arbitrary bounded ys."""
    return st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda ys: (np.arange(1.0, len(ys) + 1.0), np.array(ys)))


class TestUpperConvexHull:
    def test_single_point(self):
        hx, hy = upper_convex_hull([2.0], [5.0])
        assert hx.tolist() == [2.0]
        assert hy.tolist() == [5.0]

    def test_linear_curve_keeps_endpoints_only_in_value(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = 2.0 * xs
        hx, hy = upper_convex_hull(xs, ys)
        # Collinear points may be kept or dropped; values must match.
        for x, y in zip(xs, ys):
            assert np.interp(x, hx, hy) == pytest.approx(y)

    def test_cliff_is_linearized(self):
        # An mcf-style step: flat then jump.
        xs = np.arange(1.0, 6.0)
        ys = np.array([0.2, 0.2, 0.2, 1.0, 1.0])
        hx, hy = upper_convex_hull(xs, ys)
        # The hull bridges straight from the first point to the jump.
        assert np.interp(2.5, hx, hy) == pytest.approx(0.2 + 0.8 * 1.5 / 3.0)

    def test_rejects_unsorted_x(self):
        with pytest.raises(ValueError):
            upper_convex_hull([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            upper_convex_hull([2.0, 1.0], [0.0, 1.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            upper_convex_hull([1.0, 2.0], [0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            upper_convex_hull([], [])

    @given(_curves())
    @settings(max_examples=120, deadline=None)
    def test_hull_dominates_samples(self, curve):
        xs, ys = curve
        hx, hy = upper_convex_hull(xs, ys)
        for x, y in zip(xs, ys):
            assert np.interp(x, hx, hy) >= y - 1e-9

    @given(_curves(min_size=2))
    @settings(max_examples=120, deadline=None)
    def test_hull_slopes_non_increasing(self, curve):
        xs, ys = curve
        hx, hy = upper_convex_hull(xs, ys)
        if hx.size >= 3:
            slopes = np.diff(hy) / np.diff(hx)
            assert np.all(np.diff(slopes) <= 1e-9)

    @given(_curves())
    @settings(max_examples=120, deadline=None)
    def test_hull_keeps_endpoints(self, curve):
        xs, ys = curve
        hx, hy = upper_convex_hull(xs, ys)
        assert hx[0] == xs[0] and hy[0] == ys[0]
        assert hx[-1] == xs[-1] and hy[-1] == ys[-1]

    @given(_curves(min_size=2), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=120, deadline=None)
    def test_hull_is_midpoint_concave(self, curve, t):
        xs, ys = curve
        hx, hy = upper_convex_hull(xs, ys)
        a, b = xs[0], xs[-1]
        x1 = a + t * (b - a)
        x2 = b - t * (b - a) / 2.0
        mid = (x1 + x2) / 2.0
        v1, v2, vm = np.interp([x1, x2, mid], hx, hy)
        assert vm >= (v1 + v2) / 2.0 - 1e-9


def _oracle_chain(xs, ys):
    """The sequential monotone chain on Python floats: hull vertex indices."""
    stack = []
    for c in range(len(xs)):
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            xa, ya = xs[a], ys[a]
            if (xs[b] - xa) * (ys[c] - ya) - (ys[b] - ya) * (xs[c] - xa) >= 0.0:
                stack.pop()
            else:
                break
        stack.append(c)
    return stack


def _oracle_lines(xs, lines):
    """Each line's hull, one sequential chain and ``np.interp`` per line."""
    out = []
    for x, y in zip(xs, lines):
        idx = _oracle_chain(x.tolist(), y.tolist())
        out.append(np.interp(x, x[idx], y[idx]))
    return np.array(out).reshape(lines.shape)


_CELLS = st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, -0.0, np.nan]) | st.floats(
    min_value=-10.0, max_value=10.0
)


@st.composite
def _line_sets(draw, min_knots=1, max_knots=9):
    """Lines of one length, on a shared axis or on an axis each."""
    num = draw(st.integers(1, 6))
    knots = draw(st.integers(min_knots, max_knots))
    steps = st.floats(min_value=0.01, max_value=5.0)
    shared = draw(st.booleans())
    axes = draw(
        st.lists(
            st.lists(steps, min_size=knots, max_size=knots),
            min_size=1 if shared else num,
            max_size=1 if shared else num,
        )
    )
    xs = np.cumsum(np.array(axes), axis=1)
    values = draw(st.lists(_CELLS, min_size=num * knots, max_size=num * knots))
    lines = np.array(values).reshape(num, knots)
    return (xs[0] if shared else xs), lines


class TestHullLines:
    @given(_line_sets())
    @settings(max_examples=200, deadline=None)
    def test_equals_sequential_chain_bitwise(self, line_set):
        xs, lines = line_set
        expected = _oracle_lines(np.broadcast_to(xs, lines.shape), lines)
        assert hull_lines(xs, lines).tobytes() == expected.tobytes()

    @given(_line_sets(min_knots=1, max_knots=2))
    @settings(max_examples=100, deadline=None)
    def test_one_and_two_knot_lines_equal_the_chain(self, line_set):
        xs, lines = line_set
        expected = _oracle_lines(np.broadcast_to(xs, lines.shape), lines)
        assert hull_lines(xs, lines).tobytes() == expected.tobytes()
        assert expected.tobytes() == lines.tobytes()

    @given(_curves(min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_vertices_equal_the_chain(self, curve):
        xs, ys = curve
        idx = _oracle_chain(xs.tolist(), ys.tolist())
        hx, hy = upper_convex_hull(xs, ys)
        assert hx.tobytes() == xs[idx].tobytes()
        assert hy.tobytes() == ys[idx].tobytes()

    def test_collinear_points_are_dropped(self):
        hx, hy = upper_convex_hull([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        assert hx.tolist() == [0.0, 3.0]
        assert hy.tolist() == [0.0, 3.0]

    def test_raises_dips_and_keeps_concave_lines(self):
        xs = np.arange(4.0)
        lines = np.array([[0.0, 1.0, 1.5, 1.75], [0.0, 0.0, 0.0, 3.0]])
        out = hull_lines(xs, lines)
        np.testing.assert_array_equal(out[0], [0.0, 1.0, 1.5, 1.75])
        np.testing.assert_array_equal(out[1], [0.0, 1.0, 2.0, 3.0])

    def test_short_lines_are_left_alone(self):
        for n in (1, 2):
            lines = np.arange(3.0 * n).reshape(3, n)
            out = hull_lines(np.arange(float(n)), lines)
            np.testing.assert_array_equal(out, lines)
            assert out is not lines


class TestHullInterpolate:
    """``PiecewiseLinearConcave.value`` interpolates its hull vertices."""

    def test_clamps_below_and_above(self):
        f = PiecewiseLinearConcave([1.0, 3.0], [0.5, 1.5])
        assert f.value(0.0) == 0.5
        assert f.value(10.0) == 1.5
        assert type(f.value(2.0)) is float

    def test_linear_between_vertices(self):
        f = PiecewiseLinearConcave([0.0, 2.0], [0.0, 4.0])
        assert f.value(1.0) == pytest.approx(2.0)


class TestPiecewiseLinearConcave:
    def test_points_of_interest_are_hull_vertices(self):
        xs = np.arange(1.0, 6.0)
        ys = np.array([0.2, 0.2, 0.2, 1.0, 1.0])
        f = PiecewiseLinearConcave(xs, ys)
        px, py = f.points_of_interest
        assert px[0] == 1.0 and px[-1] == 5.0
        assert np.all(np.diff(py) >= -1e-12)

    def test_bracketing_pois(self):
        f = PiecewiseLinearConcave([0.0, 2.0, 4.0], [0.0, 3.0, 4.0])
        (lo, _), (hi, _) = f.bracketing_pois(1.0)
        assert lo == 0.0 and hi == 2.0
        (lo, _), (hi, _) = f.bracketing_pois(-1.0)
        assert lo == hi == 0.0
        (lo, _), (hi, _) = f.bracketing_pois(9.0)
        assert lo == hi == 4.0
