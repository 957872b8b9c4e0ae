"""Parallel experiment harness: determinism and cell-failure isolation.

The executor contract says a worker pool must be invisible in the
results (same scores as serial) and a failing cell must cost exactly
its own bundle, not the sweep.  These tests exercise both through the
public entry points ``run_analytic_sweep`` / ``run_simulation_experiment``.
"""

import pytest

from repro.analysis import run_analytic_sweep, run_simulation_experiment
from repro.cmp import cmp_8core
from repro.core import EqualBudget, EqualShare
from repro.sim import SimulationConfig


class _ExplodeOnNamd:
    """Fails exactly the bundles that contain the *namd* application.

    With ``seed=2016`` and two 8-core CPBN bundles, *namd* appears in
    CPBN-00 but not CPBN-01, so this poisons precisely one bundle.
    """

    name = "ExplodeOnNamd"

    def allocate(self, problem):
        if "namd" in problem.player_names:
            raise RuntimeError("namd detected")
        return EqualShare().allocate(problem)


def _small_mechanisms():
    return [EqualShare(), EqualBudget()]


def _exploding_mechanisms():
    return [EqualShare(), _ExplodeOnNamd()]


#: Sweep shapes for the serial-vs-pooled compare: a two-mechanism sweep
#: over two CPBN bundles, and the six-mechanism suite over one bundle
#: each of CPBN and BBPN.
SWEEP_SHAPES = {
    "small": dict(
        bundles_per_category=2,
        categories=("CPBN",),
        mechanisms_factory=_small_mechanisms,
    ),
    "suite": dict(bundles_per_category=1, categories=("CPBN", "BBPN")),
}


def _cells(sweep):
    """Every cell's scores; allocations as raw bytes, so the compare is bitwise."""
    return [
        (
            score.bundle,
            mechanism,
            result.efficiency,
            result.envy_freeness,
            result.iterations,
            result.allocations.tobytes(),
        )
        for score in sweep.scores
        for mechanism, result in score.results.items()
    ]


class TestAnalyticSweepParallel:
    @pytest.mark.parametrize("shape", list(SWEEP_SHAPES.values()), ids=list(SWEEP_SHAPES))
    def test_parallel_scores_identical_to_serial(self, shape):
        serial = run_analytic_sweep(config=cmp_8core(), workers=1, **shape)
        pooled = run_analytic_sweep(config=cmp_8core(), workers=2, **shape)
        assert serial.failures == [] and pooled.failures == []
        assert _cells(serial) and _cells(serial) == _cells(pooled)
        assert serial.mechanisms == pooled.mechanisms

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cell_is_isolated(self, workers):
        sweep = run_analytic_sweep(
            config=cmp_8core(),
            bundles_per_category=2,
            categories=("CPBN",),
            mechanisms_factory=_exploding_mechanisms,
            workers=workers,
        )
        # The poisoned bundle is excluded from the scores entirely...
        assert [s.bundle for s in sweep.scores] == ["CPBN-01"]
        assert set(sweep.scores[0].results) == {"EqualShare", "ExplodeOnNamd"}
        # ...and its failing cell is recorded with the worker traceback.
        assert len(sweep.failures) == 1
        failure = sweep.failures[0]
        assert failure.bundle == "CPBN-00"
        assert failure.mechanism == "ExplodeOnNamd"
        assert "namd detected" in failure.error
        assert "RuntimeError" in failure.error


class TestSimulationParallel:
    @pytest.mark.parametrize("per_cell_seeds", [False, True])
    def test_parallel_matches_serial(self, per_cell_seeds):
        kwargs = dict(
            categories=("CPBN",),
            sim_config=SimulationConfig(duration_ms=3.0),
            per_cell_seeds=per_cell_seeds,
        )
        serial = run_simulation_experiment(workers=1, **kwargs)
        pooled = run_simulation_experiment(workers=2, **kwargs)
        assert len(serial) == len(pooled) == 1
        assert serial[0].bundle == pooled[0].bundle
        assert serial[0].efficiency == pooled[0].efficiency
        assert serial[0].envy_freeness == pooled[0].envy_freeness
        assert serial[0].mean_iterations == pooled[0].mean_iterations
        assert serial.failures == [] and pooled.failures == []
