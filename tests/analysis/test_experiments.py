"""The per-figure experiment harness (on small configurations)."""

import numpy as np
import pytest

from repro.analysis import (
    fig1_data,
    fig2_data,
    fig3_data,
    run_analytic_sweep,
    run_simulation_experiment,
)
from repro.cmp import cmp_8core
from repro.core import EqualBudget, EqualShare, MaxEfficiency, ReBudgetMechanism
from repro.sim import SimulationConfig


def _small_mechanisms():
    return [EqualShare(), EqualBudget(), ReBudgetMechanism(step=40), MaxEfficiency()]


@pytest.fixture(scope="module")
def small_sweep():
    return run_analytic_sweep(
        config=cmp_8core(),
        bundles_per_category=2,
        categories=("CPBN", "BBPN"),
        mechanisms_factory=_small_mechanisms,
    )


class TestFig1:
    def test_series(self):
        d = fig1_data()
        assert d["poa_bound"][-1] == pytest.approx(0.75)
        assert d["ef_bound"][-1] == pytest.approx(0.828, abs=5e-4)
        assert d["mur"].size == 101


class TestFig2:
    def test_mcf_cliff_and_hull(self):
        d = fig2_data()
        mcf = d["mcf"]
        # The raw curve has mcf's signature: flat ~0.2 then jumping to 1.
        assert mcf["raw"][3] < 0.3
        assert mcf["raw"][-1] == pytest.approx(1.0, abs=0.01)
        # The hull dominates and is concave.
        assert np.all(mcf["hull"] >= mcf["raw"] - 1e-9)
        slopes = np.diff(mcf["hull"]) / np.diff(mcf["regions"])
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_vpr_already_concave(self):
        d = fig2_data()
        vpr = d["vpr"]
        np.testing.assert_allclose(vpr["hull"], vpr["raw"], atol=1e-6)


class TestFig3:
    @pytest.fixture(scope="class")
    def data(self):
        return fig3_data()

    def test_distinct_apps_reported(self, data):
        assert data["apps"] == ["apsi", "swim", "mcf", "hmmer", "sixtrack"]

    def test_lambdas_normalized(self, data):
        for mech, lambdas in data["lambdas"].items():
            values = np.array(list(lambdas.values()))
            assert values.max() == pytest.approx(1.0)
            assert np.all(values >= 0.0)

    def test_summary_contents(self, data):
        for mech, summary in data["summary"].items():
            assert 0.0 <= summary["mur"] <= 1.0
            assert 0.0 < summary["efficiency_vs_opt"] <= 1.0 + 1e-6
            assert set(summary["budgets"]) == set(data["apps"])

    def test_rebudget_never_less_efficient_than_equal_budget(self, data):
        eq = data["summary"]["EqualBudget"]["efficiency"]
        for mech, summary in data["summary"].items():
            if mech.startswith("ReBudget"):
                assert summary["efficiency"] >= eq - 1e-6


class TestAnalyticSweep:
    def test_score_count(self, small_sweep):
        assert len(small_sweep.scores) == 4  # 2 categories x 2 bundles

    def test_mechanism_lineup(self, small_sweep):
        assert small_sweep.mechanisms == [
            "EqualShare",
            "EqualBudget",
            "ReBudget-40",
            "MaxEfficiency",
        ]

    def test_figure4_ordering(self, small_sweep):
        series = small_sweep.efficiency_series("EqualShare")
        assert np.all(np.diff(series) >= -1e-12)

    def test_max_efficiency_dominates(self, small_sweep):
        for mech in small_sweep.mechanisms:
            assert np.all(small_sweep.efficiency_series(mech) <= 1.0 + 1e-6)

    def test_equal_share_envy_free(self, small_sweep):
        np.testing.assert_allclose(
            small_sweep.envy_freeness_series("EqualShare"), 1.0, atol=1e-9
        )

    def test_fractions(self, small_sweep):
        assert 0.0 <= small_sweep.fraction_at_least("EqualBudget", 0.9) <= 1.0
        assert small_sweep.fraction_at_least("MaxEfficiency", 0.999) == 1.0

    def test_no_theorem2_violations(self, small_sweep):
        assert small_sweep.theorem2_violations() == []

    def test_convergence_stats(self, small_sweep):
        stats = small_sweep.convergence_stats("EqualBudget")
        assert stats["max_iterations"] <= 30
        assert 0.0 <= stats["fraction_within_5"] <= 1.0
        assert stats["converged_fraction"] == 1.0


class TestSimulationExperiment:
    def test_one_bundle_per_category(self):
        scores = run_simulation_experiment(
            config=cmp_8core(),
            categories=("BBPN",),
            sim_config=SimulationConfig(duration_ms=3.0, seed=5),
            mechanisms_factory=lambda: [EqualShare(), MaxEfficiency()],
        )
        assert len(scores) == 1
        score = scores[0]
        assert score.category == "BBPN"
        assert set(score.efficiency) == {"EqualShare", "MaxEfficiency"}
        assert 0.0 <= score.efficiency_vs_opt("EqualShare") <= 1.3
