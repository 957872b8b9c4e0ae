"""Parametric utility families: values, gradients, and concavity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_probes import is_concave_on_grid, is_nondecreasing_on_grid
from numeric_oracle import numeric_gradient
from repro.utility import (
    AdditiveUtility,
    CobbDouglasUtility,
    LinearUtility,
    LogUtility,
    PowerUtility,
    SaturatingUtility,
    ScaledUtility,
)

_allocations = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    min_size=2,
    max_size=2,
).map(np.array)


class TestLinearUtility:
    def test_value_and_gradient(self):
        u = LinearUtility([2.0, 3.0])
        assert u.value([1.0, 1.0]) == pytest.approx(5.0)
        assert u.gradient([4.0, 4.0]).tolist() == [2.0, 3.0]

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            LinearUtility([-1.0, 2.0])

    def test_callable_protocol(self):
        u = LinearUtility([1.0])
        assert u((2.0,)) == pytest.approx(2.0)


class TestLogUtility:
    def test_value(self):
        u = LogUtility([1.0], [1.0])
        assert u.value([np.e - 1.0]) == pytest.approx(1.0)

    def test_gradient_matches_numeric(self):
        u = LogUtility([1.5, 0.5], [2.0, 1.0])
        point = np.array([3.0, 4.0])
        np.testing.assert_allclose(
            u.gradient(point), numeric_gradient(u.value, point), rtol=1e-4
        )

    def test_concave_and_nondecreasing(self):
        u = LogUtility([1.0, 2.0], [1.0, 3.0])
        grids = [np.linspace(0.0, 10.0, 8)] * 2
        assert is_concave_on_grid(u.value, grids)
        assert is_nondecreasing_on_grid(u.value, grids)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LogUtility([-1.0], [1.0])
        with pytest.raises(ValueError):
            LogUtility([1.0], [0.0])


class TestPowerUtility:
    def test_value(self):
        u = PowerUtility([2.0], [0.5])
        assert u.value([4.0]) == pytest.approx(4.0)

    def test_gradient_matches_numeric(self):
        u = PowerUtility([1.0, 2.0], [0.5, 0.8])
        point = np.array([2.0, 3.0])
        np.testing.assert_allclose(
            u.gradient(point), numeric_gradient(u.value, point), rtol=1e-3
        )

    def test_rejects_convex_exponent(self):
        with pytest.raises(ValueError):
            PowerUtility([1.0], [1.5])
        with pytest.raises(ValueError):
            PowerUtility([1.0], [0.0])

    @given(_allocations, _allocations)
    @settings(max_examples=60, deadline=None)
    def test_midpoint_concavity(self, a, b):
        u = PowerUtility([1.0, 1.0], [0.5, 0.7])
        mid = (a + b) / 2.0
        assert u.value(mid) >= (u.value(a) + u.value(b)) / 2.0 - 1e-9


class TestCobbDouglas:
    def test_value(self):
        u = CobbDouglasUtility([0.5, 0.5], scale=2.0)
        assert u.value([4.0, 9.0]) == pytest.approx(12.0)

    def test_zero_allocation_gives_zero(self):
        u = CobbDouglasUtility([0.5, 0.5])
        assert u.value([0.0, 5.0]) == 0.0

    def test_gradient_matches_numeric(self):
        u = CobbDouglasUtility([0.3, 0.6], scale=1.5)
        point = np.array([2.0, 5.0])
        np.testing.assert_allclose(
            u.gradient(point), numeric_gradient(u.value, point), rtol=1e-3
        )

    def test_rejects_superlinear(self):
        with pytest.raises(ValueError):
            CobbDouglasUtility([0.7, 0.7])

    def test_rejects_negative_elasticity(self):
        with pytest.raises(ValueError):
            CobbDouglasUtility([-0.1, 0.5])


class TestSaturatingUtility:
    def test_ramp_and_cap(self):
        u = SaturatingUtility([1.0], [4.0])
        assert u.value([2.0]) == pytest.approx(0.5)
        assert u.value([8.0]) == pytest.approx(1.0)

    def test_gradient_zero_past_cap(self):
        u = SaturatingUtility([1.0, 2.0], [4.0, 2.0])
        grad = u.gradient([5.0, 1.0])
        assert grad[0] == 0.0
        assert grad[1] == pytest.approx(1.0)

    def test_rejects_nonpositive_caps(self):
        with pytest.raises(ValueError):
            SaturatingUtility([1.0], [0.0])


class TestAdditiveUtility:
    def test_composes_single_resource_parts(self):
        u = AdditiveUtility([LinearUtility([2.0]), PowerUtility([1.0], [0.5])])
        assert u.num_resources == 2
        assert u.value([3.0, 4.0]) == pytest.approx(8.0)
        np.testing.assert_allclose(u.gradient([3.0, 4.0]), [2.0, 0.25])

    def test_rejects_multiresource_components(self):
        with pytest.raises(ValueError):
            AdditiveUtility([LinearUtility([1.0, 1.0])])


class TestScaledUtility:
    def test_affine_wrap(self):
        u = ScaledUtility(LinearUtility([1.0]), scale=0.5, offset=1.0)
        assert u.value([4.0]) == pytest.approx(3.0)
        assert u.gradient([4.0])[0] == pytest.approx(0.5)

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            ScaledUtility(LinearUtility([1.0]), scale=-1.0)
