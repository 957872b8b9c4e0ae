"""Summary statistics helpers."""

import pytest

from repro.analysis import fraction_at_least


class TestFractionAtLeast:
    def test_value(self):
        assert fraction_at_least([0.5, 0.9, 1.0], 0.9) == pytest.approx(2 / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fraction_at_least([], 0.5)

