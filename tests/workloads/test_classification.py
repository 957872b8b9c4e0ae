"""Profiling-based C/P/B/N classification."""

import numpy as np
import pytest

from repro.cmp.spec_suite import INTENDED_CLASS, app_by_name, spec_suite
from repro.workloads import classify, profile_application, sensitivities
from repro.workloads.classification import (
    PROFILE_CACHE_REGIONS,
    PROFILE_FREQUENCIES_GHZ,
)


class TestProfileGrid:
    def test_paper_90_point_grid(self):
        # Section 6: {1-6, 8, 10, 12, 16} regions x {0.8..4.0} GHz.
        assert PROFILE_CACHE_REGIONS == (1, 2, 3, 4, 5, 6, 8, 10, 12, 16)
        assert len(PROFILE_FREQUENCIES_GHZ) == 9
        assert len(PROFILE_CACHE_REGIONS) * len(PROFILE_FREQUENCIES_GHZ) == 90

    def test_profile_table_shape(self):
        table = profile_application(app_by_name("vpr"))
        assert table.utility.shape == (10, 9)
        assert table.power_watts.shape == (10, 9)
        assert table.app_name == "vpr"

    def test_utility_monotone_along_axes(self):
        table = profile_application(app_by_name("swim"))
        assert np.all(np.diff(table.utility, axis=0) >= -1e-9)
        assert np.all(np.diff(table.utility, axis=1) >= -1e-9)

    def test_power_independent_of_cache(self):
        table = profile_application(app_by_name("swim"))
        assert np.allclose(table.power_watts, table.power_watts[0:1, :])


class TestSensitivities:
    def test_mcf_is_cache_dominant(self):
        s = sensitivities(profile_application(app_by_name("mcf")))
        assert s.cache > 0.4
        assert s.power < 0.15

    def test_povray_is_power_dominant(self):
        s = sensitivities(profile_application(app_by_name("povray")))
        assert s.power > 0.6
        assert s.cache < 0.05


class TestClassify:
    def test_matches_design_intent_for_all_24(self):
        for app in spec_suite():
            letter = classify(sensitivities(profile_application(app)))
            assert letter == INTENDED_CLASS[app.name], app.name
