"""Numeric gradient and grid-probe helpers."""

import numpy as np
import pytest

from grid_probes import is_concave_on_grid, is_nondecreasing_on_grid
from repro.utility import LinearUtility, numeric_gradient
from repro.utility.base import UtilityFunction


class TestNumericGradient:
    def test_quadratic(self):
        grad = numeric_gradient(lambda r: r[0] ** 2 + 3 * r[1], np.array([2.0, 1.0]))
        np.testing.assert_allclose(grad, [4.0, 3.0], rtol=1e-4)

    def test_scales_steps_for_large_coordinates(self):
        # Cache allocations are ~1e6 bytes; a fixed 1e-6 step would vanish.
        grad = numeric_gradient(lambda r: 2e-6 * r[0], np.array([1e6]))
        np.testing.assert_allclose(grad, [2e-6], rtol=1e-4)

    def test_one_sided_at_zero_boundary(self):
        # sqrt has infinite slope at 0; the forward difference must not
        # evaluate at negative coordinates (which would be NaN).
        grad = numeric_gradient(lambda r: np.sqrt(max(r[0], 0.0)), np.array([0.0]))
        assert np.isfinite(grad[0]) and grad[0] > 0.0


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


class TestUtilityFunctionBase:
    def test_default_gradient_and_marginal(self):
        class Quadratic(UtilityFunction):
            num_resources = 2

            def value(self, allocation):
                return float(allocation[0] * 2.0 + allocation[1])

        u = Quadratic()
        assert u.marginal([1.0, 1.0], 0) == pytest.approx(2.0, rel=1e-4)
        assert u.marginal([1.0, 1.0], 1) == pytest.approx(1.0, rel=1e-4)

    def test_abstract(self):
        with pytest.raises(TypeError):
            UtilityFunction()
