"""The tabulated 2-D grid utility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utility import GridUtility2D


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
