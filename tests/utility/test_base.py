"""Numeric gradients, grid probes and the utility base class."""

import numpy as np
import pytest

from grid_probes import is_concave_on_grid, is_nondecreasing_on_grid
from repro.utility import numeric_gradient_batch
from repro.utility.base import UtilityFunction


class TestNumericGradient:
    def test_quadratic(self):
        grad = numeric_gradient_batch(
            lambda p: p[:, 0] ** 2 + 3 * p[:, 1], np.array([[2.0, 1.0]])
        )
        np.testing.assert_allclose(grad, [[4.0, 3.0]], rtol=1e-4)

    def test_scales_steps_for_large_coordinates(self):
        # Cache allocations are ~1e6 bytes; a fixed 1e-6 step would vanish.
        grad = numeric_gradient_batch(lambda p: 2e-6 * p[:, 0], np.array([[1e6]]))
        np.testing.assert_allclose(grad, [[2e-6]], rtol=1e-4)

    def test_one_sided_at_zero_boundary(self):
        # sqrt has infinite slope at 0; the forward difference must not
        # evaluate at negative coordinates (which would be NaN).
        with np.errstate(invalid="raise"):
            grad = numeric_gradient_batch(lambda p: np.sqrt(p[:, 0]), np.array([[0.0]]))
        assert np.isfinite(grad[0, 0]) and grad[0, 0] > 0.0


class TestGridProbes:
    def test_concave_detects_convex_function(self):
        grids = [np.linspace(0.0, 4.0, 9)]
        assert not is_concave_on_grid(lambda r: r[0] ** 2, grids)
        assert is_concave_on_grid(lambda r: np.sqrt(r[0]), grids)

    def test_concave_2d(self):
        grids = [np.linspace(0.1, 4.0, 5)] * 2
        assert is_concave_on_grid(lambda r: np.sqrt(r[0]) + np.sqrt(r[1]), grids)
        assert not is_concave_on_grid(lambda r: r[0] * r[0] + r[1], grids)

    def test_nondecreasing(self):
        grids = [np.linspace(0.0, 4.0, 9)] * 2
        assert is_nondecreasing_on_grid(lambda r: r[0] + r[1], grids)
        assert not is_nondecreasing_on_grid(lambda r: r[0] - r[1], grids)


class Quadratic(UtilityFunction):
    """Only a value body: the base class supplies every gradient."""

    num_resources = 2

    def _value_batch(self, points):
        return points[:, 0] ** 2 + np.sqrt(points[:, 1])


class TestUtilityFunctionBase:
    def test_default_gradient_and_marginal(self):
        u = Quadratic()
        np.testing.assert_allclose(u.gradient([1.0, 4.0]), [2.0, 0.25], rtol=1e-4)

    def test_scalar_calls_are_one_row_batches(self):
        u = Quadratic()
        value = u.value([1.5, 0.5])
        assert type(value) is float
        assert value == u.value_batch([[1.5, 0.5]])[0]
        assert u.gradient([1.5, 0.5]).shape == (2,)

    def test_abstract(self):
        with pytest.raises(TypeError):
            UtilityFunction()

    def test_value_body_is_required(self):
        class NoBody(UtilityFunction):
            def _gradient_batch(self, points):
                return np.zeros_like(points)

        with pytest.raises(TypeError):
            NoBody()
