"""Program-phase tracking."""

import pytest

from repro.cmp.application import AppProfile, FlatMRC, Phase
from repro.sim import PhaseTracker


def _app(phases=()):
    return AppProfile(
        name="x", suite="t", cpi_exe=0.5, apki=5.0, mrc=FlatMRC(0.3), phases=phases
    )


class TestStationary:
    def test_no_phases_means_unit_scales(self):
        tracker = PhaseTracker(_app())
        state = tracker.state_at(123.4)
        assert state.apki_scale == state.cpi_scale == state.activity_scale == 1.0

    def test_never_changes(self):
        tracker = PhaseTracker(_app())
        assert {tracker.state_at(t).phase_index for t in (0.0, 2.5, 1e6)} == {0}


class TestCycling:
    @pytest.fixture
    def tracker(self):
        phases = (
            Phase(duration_ms=2.0, apki_scale=1.0),
            Phase(duration_ms=3.0, apki_scale=2.0),
        )
        return PhaseTracker(_app(phases))

    def test_phase_boundaries(self, tracker):
        assert tracker.state_at(0.0).phase_index == 0
        assert tracker.state_at(1.99).phase_index == 0
        assert tracker.state_at(2.0).phase_index == 1
        assert tracker.state_at(4.99).phase_index == 1

    def test_wraps_around(self, tracker):
        assert tracker.state_at(5.0).phase_index == 0
        assert tracker.state_at(7.5).phase_index == 1
        assert tracker.state_at(105.0).phase_index == 0

    def test_scales_follow_phase(self, tracker):
        assert tracker.state_at(1.0).apki_scale == 1.0
        assert tracker.state_at(3.0).apki_scale == 2.0
