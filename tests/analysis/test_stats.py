"""Summary statistics of a sweep."""

from types import SimpleNamespace

import pytest

from repro.analysis import BundleScore, SweepResult


class TestFractionAtLeast:
    def test_value(self):
        # Three bundles at 0.5, 0.9 and 1.0 of OPT: two reach 0.9.
        scores = [
            BundleScore(
                bundle=f"b{k}",
                category="CPBN",
                results={
                    "EqualShare": SimpleNamespace(efficiency=eff),
                    "MaxEfficiency": SimpleNamespace(efficiency=1.0),
                },
            )
            for k, eff in enumerate((0.5, 0.9, 1.0))
        ]
        sweep = SweepResult(scores=scores)
        assert sweep.fraction_at_least("EqualShare", 0.9) == pytest.approx(2 / 3)
