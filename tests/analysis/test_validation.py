"""Substrate validation studies."""

import numpy as np
import pytest

from repro.analysis import (
    dram_contention_study,
    futility_convergence_study,
    umon_error_study,
)


class TestUmonErrorStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        # Small run: 2 epochs, fewer instructions, still meaningful.
        return umon_error_study(epochs=2, instructions_per_epoch=1e6)

    def test_one_row_per_app(self, rows):
        assert len(rows) == 24
        assert len({r.app for r in rows}) == 24

    def test_errors_small(self, rows):
        assert float(np.mean([r.mean_abs_error for r in rows])) < 0.05

    def test_sampling_rate_respected(self, rows):
        for r in rows:
            # 1-in-32 sampling: far fewer samples than accesses.
            assert 0 < r.sampled_accesses < 2e6


class TestFutilityStudy:
    def test_all_trials_converge(self):
        epochs = futility_convergence_study(max_epochs=150)
        assert len(epochs) == 20
        assert max(epochs) < 150


class TestDramStudy:
    def test_monotone_curve(self):
        rows = dram_contention_study()
        lats = [lat for _, lat in rows]
        assert all(a <= b + 1e-9 for a, b in zip(lats, lats[1:]))
