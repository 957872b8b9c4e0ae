"""Tabulated utilities: interpolation, hulls, and the 2-D grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utility import GridUtility2D, HullUtility1D, TabularUtility1D


class TestTabularUtility1D:
    def test_interpolates_and_clamps(self):
        u = TabularUtility1D([0.0, 1.0, 2.0], [0.0, 1.0, 1.5])
        assert u.value([0.5]) == pytest.approx(0.5)
        assert u.value([1.5]) == pytest.approx(1.25)
        assert u.value([-1.0]) == 0.0
        assert u.value([9.0]) == 1.5

    def test_gradient_is_segment_slope(self):
        u = TabularUtility1D([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        assert u.gradient([0.5])[0] == pytest.approx(2.0)
        assert u.gradient([2.0])[0] == pytest.approx(0.5)
        assert u.gradient([5.0])[0] == 0.0

    def test_preserves_cliffs(self):
        # Unlike the hull version, the raw table keeps non-concavity.
        u = TabularUtility1D([0.0, 1.0, 2.0], [0.2, 0.2, 1.0])
        assert u.value([1.0]) == pytest.approx(0.2)
        assert u.value([1.5]) == pytest.approx(0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            TabularUtility1D([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            TabularUtility1D([], [])
        with pytest.raises(ValueError):
            TabularUtility1D([0.0, 1.0], [0.0])


class TestHullUtility1D:
    def test_convexifies_cliff(self):
        u = HullUtility1D([0.0, 1.0, 2.0], [0.2, 0.2, 1.0])
        # The hull bridges linearly from (0, 0.2) to (2, 1.0).
        assert u.value([1.0]) == pytest.approx(0.6)

    def test_gradient_non_increasing(self):
        u = HullUtility1D([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1.2, 1.3])
        grads = [u.gradient([x])[0] for x in np.linspace(0.0, 3.0, 13)]
        assert all(a >= b - 1e-12 for a, b in zip(grads, grads[1:]))

    def test_points_of_interest_exposed(self):
        u = HullUtility1D([0.0, 1.0, 2.0], [0.2, 0.2, 1.0])
        xs, ys = u.points_of_interest
        assert xs[0] == 0.0 and xs[-1] == 2.0


class TestGridUtility2D:
    @pytest.fixture
    def grid(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([0.0, 2.0])
        values = np.array([[0.0, 1.0], [1.0, 2.0], [1.5, 2.5]])
        return GridUtility2D(xs, ys, values)

    def test_exact_at_grid_points(self, grid):
        assert grid.value([1.0, 2.0]) == pytest.approx(2.0)
        assert grid.value([2.0, 0.0]) == pytest.approx(1.5)

    def test_bilinear_between_points(self, grid):
        assert grid.value([0.5, 1.0]) == pytest.approx(1.0)

    def test_clamps_outside(self, grid):
        assert grid.value([-5.0, -5.0]) == pytest.approx(0.0)
        assert grid.value([99.0, 99.0]) == pytest.approx(2.5)

    def test_degenerate_axes(self):
        u = GridUtility2D([1.0], [0.0, 1.0], np.array([[0.0, 2.0]]))
        assert u.value([1.0, 0.5]) == pytest.approx(1.0)
        v = GridUtility2D([0.0, 1.0], [2.0], np.array([[0.0], [4.0]]))
        assert v.value([0.25, 2.0]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridUtility2D([0.0, 1.0], [0.0], np.zeros((3, 1)))
        with pytest.raises(ValueError):
            GridUtility2D([1.0, 0.0], [0.0], np.zeros((2, 1)))

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_value_range(self, x, y):
        grid = GridUtility2D(
            np.array([0.0, 1.0, 2.0]),
            np.array([0.0, 2.0]),
            np.array([[0.0, 1.0], [1.0, 2.0], [1.5, 2.5]]),
        )
        v = grid.value([x, y])
        assert 0.0 - 1e-9 <= v <= 2.5 + 1e-9


@st.composite
def grids_and_points(draw):
    """A random grid (1-5 samples per axis) and points around its box.

    Each coordinate is below, inside or above its axis, or exactly on
    one of its samples (signed zeros and NaN included); grid values
    include signed zeros.
    """
    axis = st.lists(
        st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=5, unique=True
    ).map(sorted)
    xs, ys = np.array(draw(axis)), np.array(draw(axis))
    values = np.array(
        draw(
            st.lists(
                st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0])),
                min_size=xs.size * ys.size,
                max_size=xs.size * ys.size,
            )
        )
    ).reshape(xs.size, ys.size)

    def coordinate(samples):
        return st.one_of(
            st.floats(-20.0, 20.0),
            st.sampled_from(samples.tolist()),
            st.sampled_from([0.0, -0.0, float("nan")]),
        )

    points = draw(
        st.lists(st.tuples(coordinate(xs), coordinate(ys)), min_size=1, max_size=8)
    )
    return GridUtility2D(xs, ys, values), np.array(points, dtype=float)


def test_grid_value_keeps_signed_zero_on_axis_end():
    # The clamp keeps -0.0 at a 0.0 axis end, as np.clip does; the sign
    # survives the blend when the other terms are zeros too.
    grid = GridUtility2D([0.0, 1.0], [0.0, 1.0], np.array([[-1.0, -0.0], [1.0, 1.0]]))
    point = np.array([-0.0, 1.0])
    assert grid.value(point).hex() == "-0x0.0p+0"


@given(case=grids_and_points())
@settings(max_examples=200, deadline=None)
def test_grid_value_equals_batch_row_bitwise(case):
    # value is a one-row batch; every row of a larger batch must come
    # out with the same bits, whatever the other rows hold.
    grid, points = case
    batch = grid.value_batch(points)
    for point, batched in zip(points, batch):
        value = grid.value(point)
        assert isinstance(value, float)
        assert value.hex() == float(batched).hex()
