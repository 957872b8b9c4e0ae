"""Summary statistics of a sweep."""

import math
import warnings
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


class TestEmptySweep:
    """A sweep whose every bundle had a failed cell scores nothing."""

    def test_statistics_are_nan_without_a_warning(self):
        sweep = SweepResult()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = sweep.convergence_stats("EqualBudget")
            values = [
                sweep.fraction_at_least("EqualShare", 0.9),
                sweep.worst_envy_freeness("EqualShare"),
                sweep.median_envy_freeness("EqualShare"),
                *stats.values(),
            ]
        assert sorted(stats) == [
            "converged_fraction",
            "fraction_within_3",
            "fraction_within_5",
            "max_iterations",
            "mean_iterations",
            "p95_iterations",
        ]
        assert all(math.isnan(value) for value in values)
