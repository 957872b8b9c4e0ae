"""Theorem 1 and Theorem 2 bound functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import fig1_data
from repro.core import (
    check_theorem1,
    check_theorem2,
    ef_lower_bound,
    min_mbr_for_envy_freeness,
    poa_lower_bound,
    zhang_poa_order,
)
from repro.core.theory import ZHANG_EQUAL_BUDGET_EF

_unit = st.floats(min_value=0.0, max_value=1.0)


class TestTheorem1:
    def test_anchor_points(self):
        # Theorem 1's statement: MUR >= 0.5 -> PoA >= 1 - 1/(4 MUR) >= 0.5.
        assert poa_lower_bound(0.5) == pytest.approx(0.5)
        assert poa_lower_bound(1.0) == pytest.approx(0.75)
        # Below 0.5 the bound is MUR itself.
        assert poa_lower_bound(0.3) == pytest.approx(0.3)
        assert poa_lower_bound(0.0) == 0.0

    def test_continuous_at_half(self):
        assert poa_lower_bound(0.5 - 1e-9) == pytest.approx(poa_lower_bound(0.5), abs=1e-6)

    @given(_unit, _unit)
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_mur(self, a, b):
        lo, hi = sorted((a, b))
        assert poa_lower_bound(lo) <= poa_lower_bound(hi) + 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            poa_lower_bound(-0.1)
        with pytest.raises(ValueError):
            poa_lower_bound(1.5)

    def test_check_helper(self):
        assert check_theorem1(0.8, 0.9)
        assert not check_theorem1(0.8, 0.5)


class TestTheorem2:
    def test_anchor_points(self):
        # MBR = 1 (equal budgets) recovers Zhang's 0.828 bound.
        assert ef_lower_bound(1.0) == pytest.approx(2.0 * math.sqrt(2.0) - 2.0)
        assert ef_lower_bound(0.0) == pytest.approx(0.0)

    def test_paper_rebudget_bounds(self):
        # Section 6.2: ReBudget-20 -> bound ~0.53, ReBudget-40 -> ~0.19.
        # Those correspond to minimum budgets of 61.25 and 21.25.
        assert ef_lower_bound(0.6125) == pytest.approx(0.54, abs=0.01)
        assert ef_lower_bound(0.2125) == pytest.approx(0.20, abs=0.01)

    @given(_unit, _unit)
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_mbr(self, a, b):
        lo, hi = sorted((a, b))
        assert ef_lower_bound(lo) <= ef_lower_bound(hi) + 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ef_lower_bound(-0.01)
        with pytest.raises(ValueError):
            ef_lower_bound(1.01)

    def test_check_helper(self):
        assert check_theorem2(1.0, 0.9)
        assert not check_theorem2(1.0, 0.5)


class TestInversion:
    @given(st.floats(min_value=0.0, max_value=2.0 * math.sqrt(2.0) - 2.0))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, ef_target):
        mbr = min_mbr_for_envy_freeness(ef_target)
        assert ef_lower_bound(mbr) >= ef_target - 1e-9

    def test_tightness(self):
        # The returned MBR is the smallest that works (up to clamping).
        mbr = min_mbr_for_envy_freeness(0.5)
        assert ef_lower_bound(mbr) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_unachievable_targets(self):
        with pytest.raises(ValueError):
            min_mbr_for_envy_freeness(0.9)
        with pytest.raises(ValueError):
            min_mbr_for_envy_freeness(-0.1)


class TestZhangResults:
    def test_equal_budget_bound_value(self):
        assert ZHANG_EQUAL_BUDGET_EF == pytest.approx(0.828, abs=5e-4)

    def test_poa_order(self):
        assert zhang_poa_order(64) == pytest.approx(0.125)
        with pytest.raises(ValueError):
            zhang_poa_order(0)


class TestFig1Series:
    def test_shapes_and_ends(self):
        d = fig1_data()
        poa, ef = d["poa_bound"], d["ef_bound"]
        assert d["mur"].size == poa.size == d["mbr"].size == ef.size == 101
        assert poa[0] == 0.0 and poa[-1] == pytest.approx(0.75)
        assert ef[0] == 0.0 and ef[-1] == pytest.approx(0.828, abs=5e-4)
        assert np.all(np.diff(poa) >= -1e-12)
        assert np.all(np.diff(ef) >= -1e-12)
