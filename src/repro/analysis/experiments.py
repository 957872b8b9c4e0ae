"""Experiment harness: one entry point per figure/table of the paper.

* :func:`fig1_data` — the theoretical bound curves (Figure 1).
* :func:`fig2_data` — raw vs. convexified cache utility of *mcf*/*vpr*
  (Figure 2).
* :func:`fig3_data` — per-application lambda profile of the 8-core BBPC
  bundle under EqualBudget / ReBudget-20 / ReBudget-40 (Figure 3).
* :func:`run_analytic_sweep` — the phase-1 sweep over N bundles per
  category scoring every mechanism (Figures 4a/4b), plus convergence
  statistics (Section 6.4).
* :func:`run_simulation_experiment` — the phase-2 execution-driven runs,
  one bundle per category (Figures 5a/5b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cmp.chip import ChipModel
from ..cmp.config import CMPConfig, cmp_8core, cmp_64core
from ..cmp.core_model import CoreModel
from ..cmp.spec_suite import app_by_name
from ..cmp.utility_builder import convexify_grid
from ..core.mechanisms import (
    AllocationMechanism,
    EqualBudget,
    MaxEfficiency,
    MechanismResult,
    ReBudgetMechanism,
    allocate_all,
    standard_mechanism_suite,
)
from ..core.theory import ef_lower_bound, poa_lower_bound
from ..exec import SweepExecutor, SweepProgress, SweepRun
from ..sim.engine import ExecutionDrivenSimulator, SimulationConfig
from ..workloads.bundles import (
    BUNDLE_CATEGORIES,
    Bundle,
    generate_bundles,
    paper_bbpc_bundle,
)

__all__ = [
    "fig1_data",
    "fig2_data",
    "fig3_data",
    "BundleScore",
    "SweepFailure",
    "SweepResult",
    "run_analytic_sweep",
    "SimulationScore",
    "SimulationSweepResult",
    "run_simulation_experiment",
]


# ----------------------------------------------------------------------
# Figure 1: theory curves
# ----------------------------------------------------------------------

def fig1_data() -> Dict[str, np.ndarray]:
    """The PoA-vs-MUR and EF-vs-MBR bound series of Figure 1, 101 points each."""
    xs = np.linspace(0.0, 1.0, 101)
    return {
        "mur": xs,
        "poa_bound": np.array([poa_lower_bound(x) for x in xs]),
        "mbr": xs,
        "ef_bound": np.array([ef_lower_bound(x) for x in xs]),
    }


# ----------------------------------------------------------------------
# Figure 2: cache utility, raw vs Talus hull
# ----------------------------------------------------------------------

def fig2_data() -> Dict[str, Dict[str, np.ndarray]]:
    """Normalized utility vs cache regions at maximum frequency.

    Returns, for *mcf* and *vpr* on the 8-core chip, the region axis, the
    raw (possibly cliffy) utility samples, and the Talus convex hull
    through them — the two curves of Figure 2.
    """
    config = cmp_8core()
    out: Dict[str, Dict[str, np.ndarray]] = {}
    for name in ("mcf", "vpr"):
        core = CoreModel(app_by_name(name), config)
        regions = np.arange(1, config.umon_max_regions + 1, dtype=float)
        raw = np.array(
            [
                core.utility(r * config.cache_region_bytes, config.core.max_frequency_ghz)
                for r in regions
            ]
        )
        hull = convexify_grid(regions, np.zeros((1, 1)), raw[None, :, None])[0, :, 0]
        out[name] = {"regions": regions, "raw": raw, "hull": hull}
    return out


# ----------------------------------------------------------------------
# Figure 3: lambda profile of the BBPC case study
# ----------------------------------------------------------------------

def fig3_data(bundle: Optional[Bundle] = None) -> Dict[str, object]:
    """Per-app normalized lambda_i under EqualBudget, ReBudget-20 and -40.

    Follows Figure 3 on the 8-core chip: by default the paper's BBPC
    bundle, one entry per distinct application, lambdas normalized to
    the in-bundle maximum, plus the resulting MUR, budgets and
    efficiency of every mechanism.  Pass another ``bundle`` to study
    the reassignment dynamics on workloads where the lambda spread is
    wider (in our substrate, bundles containing N-class applications).
    """
    bundle = bundle or paper_bbpc_bundle()
    problem = ChipModel(cmp_8core(), bundle.apps).build_problem()

    mechanisms: List[AllocationMechanism] = [
        EqualBudget(),
        ReBudgetMechanism(step=20.0),
        ReBudgetMechanism(step=40.0),
        MaxEfficiency(),
    ]
    results = dict(allocate_all(problem, mechanisms))
    for outcome in results.values():
        if isinstance(outcome, Exception):
            raise outcome
    opt = results[len(mechanisms) - 1]

    names = [app.name for app in bundle.apps]
    series: Dict[str, Dict[str, float]] = {}
    summary: Dict[str, Dict[str, float]] = {}
    for k, mech in enumerate(mechanisms[:-1]):
        result = results[k]
        top = max(float(result.lambdas.max()), 1e-12)
        per_app: Dict[str, float] = {}
        budgets: Dict[str, float] = {}
        for i, name in enumerate(names):
            # Copies of the same app behave identically; keep one each.
            per_app.setdefault(name, float(result.lambdas[i] / top))
            budgets.setdefault(name, float(result.budgets[i]))
        series[mech.name] = per_app
        summary[mech.name] = {
            "mur": float(result.mur),
            "mbr": float(result.mbr),
            "efficiency": float(result.efficiency),
            "efficiency_vs_opt": float(result.efficiency / opt.efficiency),
            "budgets": budgets,
        }
    return {
        "apps": sorted(set(names), key=names.index),
        "lambdas": series,
        "summary": summary,
        "opt_efficiency": float(opt.efficiency),
    }


# ----------------------------------------------------------------------
# Figures 4a/4b: the analytic (phase-1) sweep
# ----------------------------------------------------------------------

@dataclass
class BundleScore:
    """All mechanisms' metrics on one bundle."""

    bundle: str
    category: str
    results: Dict[str, MechanismResult]

    def efficiency_vs_opt(self, mechanism: str) -> float:
        return self.results[mechanism].efficiency / self.results["MaxEfficiency"].efficiency


@dataclass(frozen=True)
class SweepFailure:
    """One (bundle, mechanism) cell that raised instead of scoring."""

    bundle: str
    category: str
    mechanism: str
    #: Formatted traceback from the worker that ran the cell.
    error: str


@dataclass
class SweepResult:
    """Phase-1 sweep output: one :class:`BundleScore` per bundle.

    A bundle whose cells all succeed contributes a :class:`BundleScore`;
    a bundle with any failed cell is excluded from ``scores`` (a partial
    mechanism line-up would poison every cross-mechanism series) and its
    failing cells are recorded in ``failures`` instead.
    """

    scores: List[BundleScore] = field(default_factory=list)
    failures: List[SweepFailure] = field(default_factory=list)
    #: ``EVAL_COUNTERS`` deltas summed over every cell, whichever
    #: worker ran it (:attr:`repro.exec.SweepRun.eval_counts`).
    eval_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def mechanisms(self) -> List[str]:
        return list(self.scores[0].results.keys()) if self.scores else []

    def ordered_by_equalshare(self) -> List[BundleScore]:
        """Bundles ordered by EqualShare efficiency (Figure 4's x-axis)."""
        return sorted(
            self.scores, key=lambda s: s.efficiency_vs_opt("EqualShare")
        )

    def efficiency_series(self, mechanism: str) -> np.ndarray:
        """Normalized efficiency across bundles, in Figure-4 order."""
        return np.array(
            [s.efficiency_vs_opt(mechanism) for s in self.ordered_by_equalshare()]
        )

    def envy_freeness_series(self, mechanism: str) -> np.ndarray:
        return np.array(
            [
                s.results[mechanism].envy_freeness
                for s in self.ordered_by_equalshare()
            ]
        )

    # Every statistic below is NaN on a sweep with no scored bundle.

    def fraction_at_least(self, mechanism: str, threshold: float) -> float:
        """Fraction of bundles where a mechanism reaches ``threshold`` of OPT."""
        return _reduce(np.mean, self.efficiency_series(mechanism) >= threshold)

    def worst_envy_freeness(self, mechanism: str) -> float:
        return _reduce(np.min, self.envy_freeness_series(mechanism))

    def median_envy_freeness(self, mechanism: str) -> float:
        return _reduce(np.median, self.envy_freeness_series(mechanism))

    def theorem2_violations(self) -> List[str]:
        """Bundles/mechanisms whose realized EF falls below Theorem 2."""
        violations = []
        for score in self.scores:
            for name, result in score.results.items():
                if result.mbr is None:
                    continue
                if result.envy_freeness < ef_lower_bound(result.mbr) - 1e-9:
                    violations.append(f"{score.bundle}/{name}")
        return violations

    def convergence_stats(self, mechanism: str) -> Dict[str, float]:
        """Pricing-iteration statistics for Section 6.4."""
        iters = np.array(
            [s.results[mechanism].iterations for s in self.scores], dtype=float
        )
        converged = np.array(
            [s.results[mechanism].converged for s in self.scores], dtype=float
        )
        return {
            "mean_iterations": _reduce(np.mean, iters),
            "p95_iterations": _reduce(lambda x: np.percentile(x, 95), iters),
            "max_iterations": _reduce(np.max, iters),
            "fraction_within_3": _reduce(np.mean, iters <= 3),
            "fraction_within_5": _reduce(np.mean, iters <= 5),
            "converged_fraction": _reduce(np.mean, converged),
        }


def _reduce(statistic: Callable[[np.ndarray], float], series: np.ndarray) -> float:
    """``statistic(series)`` as a float; NaN, without a warning, when empty."""
    return float(statistic(series)) if series.size else float("nan")


def _analytic_bundle(spec):
    """Score one bundle's mechanism line-up; runs inside a sweep worker.

    Builds the bundle's problem once and returns
    :func:`~repro.core.mechanisms.allocate_all`'s ``(k, outcome)``
    stream, which stacks the line-up's cold markets and yields each
    mechanism's outcome as it completes.  The analytic pipeline is fully
    deterministic: the bidder and the greedy optimum use no randomness.
    """
    config, bundle, mechanisms = spec
    problem = ChipModel(config, bundle.apps).build_problem()
    return allocate_all(problem, mechanisms)


def _progress_adapter(
    progress: Optional[Callable[[str], None]]
) -> Optional[Callable[[SweepProgress], None]]:
    """Wrap the harness' line-oriented callback for the executor."""
    if progress is None:
        return None

    def emit(beat: SweepProgress) -> None:
        progress(beat.describe())

    return emit


def _line_up(
    bundles: Sequence[Bundle],
    mechanisms_factory: Optional[Callable[[], Sequence[AllocationMechanism]]],
) -> List[Tuple[Bundle, List[AllocationMechanism]]]:
    """Every bundle with a fresh line-up from ``mechanisms_factory``
    (the standard suite by default), in submission order."""
    factory = mechanisms_factory or standard_mechanism_suite
    return [(bundle, list(factory())) for bundle in bundles]


def _labels(bundle: Bundle, mechanisms: Sequence[AllocationMechanism]) -> Tuple[str, ...]:
    return tuple(f"{bundle.name}/{mech.name}" for mech in mechanisms)


def _collate(
    run: SweepRun, lineup: Sequence[Tuple[Bundle, List[AllocationMechanism]]]
) -> Tuple[List[Tuple[Bundle, Dict[str, object]]], List[SweepFailure]]:
    """Group a sweep's cells by bundle.

    Returns every bundle whose cells all succeeded, with its
    ``{mechanism name: cell value}`` in line-up order, and a
    :class:`SweepFailure` per failed cell.  A bundle with any failed
    cell is left out of the first list: a partial mechanism line-up
    would poison every cross-mechanism series.
    """
    cells = iter(run.cells)
    complete: List[Tuple[Bundle, Dict[str, object]]] = []
    failures: List[SweepFailure] = []
    for bundle, mechanisms in lineup:
        mech_names = [mech.name for mech in mechanisms]
        values: Dict[str, object] = {}
        for mech_name in mech_names:
            cell = next(cells)
            if cell.ok:
                values[mech_name] = cell.value
            else:
                failures.append(
                    SweepFailure(
                        bundle=bundle.name,
                        category=bundle.category,
                        mechanism=mech_name,
                        error=cell.error,
                    )
                )
        if len(values) == len(mech_names):
            complete.append((bundle, values))
    return complete, failures


def run_analytic_sweep(
    config: Optional[CMPConfig] = None,
    bundles_per_category: int = 40,
    categories: Sequence[str] = BUNDLE_CATEGORIES,
    mechanisms_factory: Optional[Callable[[], Sequence[AllocationMechanism]]] = None,
    seed: int = 2016,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
) -> SweepResult:
    """The phase-1 sweep behind Figures 4a/4b.

    With the default arguments this reproduces the paper's full setup:
    the 64-core chip, 6 categories x 40 bundles = 240 bundles, and the
    six-mechanism line-up.  ``bundles_per_category`` can be lowered for
    quick runs; the bundle *prefix* is stable for a given seed, so small
    sweeps are strict subsets of large ones.

    The bundles shard over a :class:`~repro.exec.SweepExecutor` with
    ``workers`` processes; ``workers=1`` (the default) runs them
    serially in-process.  A work item is one bundle: it builds the
    bundle's problem once and runs the line-up through
    :func:`~repro.core.mechanisms.allocate_all`, which stacks its cold
    markets.  Each (bundle, mechanism) cell is still its own outcome.
    Scores are identical for any worker count, a cell that raises is
    recorded in :attr:`SweepResult.failures` instead of killing the
    sweep, and ``progress`` receives one completion line (with ETA) per
    cell.  :attr:`SweepResult.eval_counts` sums the utility work of
    every cell.
    """
    config = config or cmp_64core()
    bundles = [
        bundle
        for category in categories
        for bundle in generate_bundles(
            category, config.num_cores, count=bundles_per_category, seed=seed
        )
    ]
    lineup = _line_up(bundles, mechanisms_factory)
    executor = SweepExecutor(workers=workers, progress=_progress_adapter(progress))
    run = executor.run(
        _analytic_bundle,
        [(config, bundle, mechanisms) for bundle, mechanisms in lineup],
        labels=[_labels(bundle, mechanisms) for bundle, mechanisms in lineup],
    )
    complete, failures = _collate(run, lineup)
    return SweepResult(
        scores=[
            BundleScore(bundle=bundle.name, category=bundle.category, results=results)
            for bundle, results in complete
        ],
        failures=failures,
        eval_counts=run.eval_counts,
    )


# ----------------------------------------------------------------------
# Figures 5a/5b: the execution-driven (phase-2) runs
# ----------------------------------------------------------------------

@dataclass
class SimulationScore:
    """Measured metrics of every mechanism on one simulated bundle."""

    bundle: str
    category: str
    efficiency: Dict[str, float]
    envy_freeness: Dict[str, float]
    mean_iterations: Dict[str, float]

    def efficiency_vs_opt(self, mechanism: str) -> float:
        return self.efficiency[mechanism] / self.efficiency["MaxEfficiency"]


class SimulationSweepResult(List[SimulationScore]):
    """Per-category simulation scores, plus any isolated cell failures.

    Behaves exactly like the plain list the harness used to return; a
    category with a failed (bundle, mechanism) cell is excluded from the
    list and recorded in :attr:`failures` instead.
    """

    def __init__(self, scores=(), failures=None):
        super().__init__(scores)
        self.failures: List[SweepFailure] = list(failures or [])


def _simulation_cell(spec):
    """Simulate one (bundle, mechanism) cell; runs inside a sweep worker."""
    config, bundle, mechanism, sim_config = spec
    chip = ChipModel(config, bundle.apps)
    result = ExecutionDrivenSimulator(chip, mechanism, sim_config).run()
    # Only the figure-level aggregates travel back to the parent; the
    # full trace would be megabytes of IPC per cell for nothing.
    return {
        "efficiency": result.efficiency,
        "envy_freeness": result.envy_freeness,
        "mean_iterations": result.mean_market_iterations,
    }


def run_simulation_experiment(
    config: Optional[CMPConfig] = None,
    categories: Sequence[str] = BUNDLE_CATEGORIES,
    sim_config: Optional[SimulationConfig] = None,
    mechanisms_factory: Optional[Callable[[], Sequence[AllocationMechanism]]] = None,
    seed: int = 2016,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> SimulationSweepResult:
    """Phase-2: simulate the first random bundle of every category.

    This validates the analytic sweep with runtime-monitored utilities,
    Futility-Scaling partition dynamics, thermal feedback and DRAM
    contention, as in Section 6.3.

    The (bundle, mechanism) runs shard over a
    :class:`~repro.exec.SweepExecutor` with ``workers`` processes and
    produce identical scores for any worker count; every cell simulates
    with ``sim_config.seed``.
    """
    config = config or cmp_64core()
    sim_config = sim_config or SimulationConfig()
    bundles = [
        generate_bundles(category, config.num_cores, count=1, seed=seed)[0]
        for category in categories
    ]
    lineup = _line_up(bundles, mechanisms_factory)
    executor = SweepExecutor(workers=workers, progress=_progress_adapter(progress))
    run = executor.run(
        _simulation_cell,
        [
            (config, bundle, mech, sim_config)
            for bundle, mechanisms in lineup
            for mech in mechanisms
        ],
        labels=[label for bundle, mechanisms in lineup for label in _labels(bundle, mechanisms)],
    )
    complete, failures = _collate(run, lineup)
    scores = [
        SimulationScore(
            bundle=bundle.name,
            category=bundle.category,
            efficiency={m: cell["efficiency"] for m, cell in cells.items()},
            envy_freeness={m: cell["envy_freeness"] for m, cell in cells.items()},
            mean_iterations={m: cell["mean_iterations"] for m, cell in cells.items()},
        )
        for bundle, cells in complete
    ]
    return SimulationSweepResult(scores, failures)
