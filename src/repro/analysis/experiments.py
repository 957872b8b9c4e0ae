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

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..cmp.chip import ChipModel
from ..cmp.config import CMPConfig, cmp_8core, cmp_64core
from ..cmp.core_model import CoreModel
from ..cmp.spec_suite import app_by_name
from ..cmp.utility_builder import convexify_grid
from ..core.mechanisms import (
    AllocationMechanism,
    MechanismResult,
    standard_mechanism_suite,
)
from ..core.theory import ef_lower_bound, poa_lower_bound
from ..exec import SweepExecutor, SweepProgress
from ..sim.engine import ExecutionDrivenSimulator, SimulationConfig
from ..workloads.bundles import (
    BUNDLE_CATEGORIES,
    Bundle,
    bundle_seed_sequence,
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

def fig1_data(points: int = 101) -> Dict[str, np.ndarray]:
    """The PoA-vs-MUR and EF-vs-MBR bound series of Figure 1."""
    xs = np.linspace(0.0, 1.0, points)
    return {
        "mur": xs,
        "poa_bound": np.array([poa_lower_bound(x) for x in xs]),
        "mbr": xs,
        "ef_bound": np.array([ef_lower_bound(x) for x in xs]),
    }


# ----------------------------------------------------------------------
# Figure 2: cache utility, raw vs Talus hull
# ----------------------------------------------------------------------

def fig2_data(
    app_names: Sequence[str] = ("mcf", "vpr"),
    config: Optional[CMPConfig] = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Normalized utility vs cache regions at maximum frequency.

    Returns, per application, the region axis, the raw (possibly cliffy)
    utility samples, and the Talus convex hull through them — the two
    curves of Figure 2.
    """
    config = config or cmp_8core()
    out: Dict[str, Dict[str, np.ndarray]] = {}
    for name in app_names:
        core = CoreModel(app_by_name(name), config)
        regions = np.arange(1, config.umon_max_regions + 1, dtype=float)
        raw = np.array(
            [
                core.utility(r * config.cache_region_bytes, config.core.max_frequency_ghz)
                for r in regions
            ]
        )
        hull = convexify_grid(regions, np.array([0.0]), raw[:, None])[:, 0]
        out[name] = {"regions": regions, "raw": raw, "hull": hull}
    return out


# ----------------------------------------------------------------------
# Figure 3: lambda profile of the BBPC case study
# ----------------------------------------------------------------------

def fig3_data(
    config: Optional[CMPConfig] = None,
    steps: Sequence[float] = (20.0, 40.0),
    bundle: Optional[Bundle] = None,
) -> Dict[str, object]:
    """Per-app normalized lambda_i under EqualBudget and ReBudget-step.

    Follows Figure 3: by default the paper's 8-core BBPC bundle, one
    entry per distinct application, lambdas normalized to the in-bundle
    maximum, plus the resulting MUR, budgets and efficiency of every
    mechanism.  Pass another ``bundle`` to study the reassignment
    dynamics on workloads where the lambda spread is wider (in our
    substrate, bundles containing N-class applications).
    """
    from ..core.mechanisms import EqualBudget, MaxEfficiency, ReBudgetMechanism

    config = config or cmp_8core()
    bundle = bundle or paper_bbpc_bundle()
    chip = ChipModel(config, bundle.apps)
    problem = chip.build_problem()

    mechanisms: List[AllocationMechanism] = [EqualBudget()]
    mechanisms += [ReBudgetMechanism(step=s) for s in steps]
    opt = MaxEfficiency().allocate(problem)

    names = [app.name for app in bundle.apps]
    series: Dict[str, Dict[str, float]] = {}
    summary: Dict[str, Dict[str, float]] = {}
    for mech in mechanisms:
        result = mech.allocate(problem)
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

    def efficiency_vs_opt(self, mechanism: str, reference: str = "MaxEfficiency") -> float:
        return self.results[mechanism].efficiency / self.results[reference].efficiency


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

    def fraction_at_least(self, mechanism: str, threshold: float) -> float:
        """Fraction of bundles where a mechanism reaches ``threshold`` of OPT."""
        series = self.efficiency_series(mechanism)
        return float(np.mean(series >= threshold))

    def worst_envy_freeness(self, mechanism: str) -> float:
        return float(self.envy_freeness_series(mechanism).min())

    def median_envy_freeness(self, mechanism: str) -> float:
        return float(np.median(self.envy_freeness_series(mechanism)))

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
            "mean_iterations": float(iters.mean()),
            "p95_iterations": float(np.percentile(iters, 95)),
            "max_iterations": float(iters.max()),
            "fraction_within_3": float(np.mean(iters <= 3)),
            "fraction_within_5": float(np.mean(iters <= 5)),
            "converged_fraction": float(converged.mean()),
        }


# One sweep-cell shards per (bundle, mechanism), so the mechanisms of a
# bundle share its convexified AllocationProblem through a small
# per-process cache instead of each rebuilding it.  Entries are keyed by
# a token unique to the parent sweep invocation: a long-lived process
# running several sweeps (different chips, same bundle names) can never
# hit a stale problem.
_PROBLEM_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_PROBLEM_CACHE_SIZE = 4
_SWEEP_TOKENS = itertools.count()


def _cached_problem(token, config: CMPConfig, bundle: Bundle):
    key = (token, bundle.category, bundle.name)
    # Deliberate per-process memo: the cached AllocationProblem is a
    # pure function of (token, bundle) — every process that rebuilds it
    # gets a bitwise-identical object, so cell results cannot depend on
    # sharding (determinism covered by tests/analysis/test_parallel_sweep.py
    # and benchmarks/test_sweep_parallel.py), hence the suppression:
    problem = _PROBLEM_CACHE.get(key)  # repro: noqa[REPRO105] pure per-process memo
    if problem is None:
        problem = ChipModel(config, bundle.apps).build_problem()
        _PROBLEM_CACHE[key] = problem
        while len(_PROBLEM_CACHE) > _PROBLEM_CACHE_SIZE:
            _PROBLEM_CACHE.popitem(last=False)
    return problem


def _analytic_cell(spec, seed_seq: np.random.SeedSequence):
    """Score one (bundle, mechanism) cell; runs inside a sweep worker.

    The analytic pipeline is fully deterministic (the bidder and the
    greedy optimum use no randomness), so the executor-provided seed is
    unused; it is part of the cell signature so stochastic cells can be
    added without changing the executor contract.
    """
    token, config, bundle, mechanism = spec
    problem = _cached_problem(token, config, bundle)
    return mechanism.allocate(problem)


def _progress_adapter(
    progress: Optional[Callable[[str], None]]
) -> Optional[Callable[[SweepProgress], None]]:
    """Wrap the harness' line-oriented callback for the executor."""
    if progress is None:
        return None

    def emit(beat: SweepProgress) -> None:
        progress(beat.describe())

    return emit


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

    The (bundle, mechanism) cells shard over a
    :class:`~repro.exec.SweepExecutor` with ``workers`` processes;
    ``workers=1`` (the default) runs them serially in-process.  Scores
    are identical for any worker count, a cell that raises is recorded
    in :attr:`SweepResult.failures` instead of killing the sweep, and
    ``progress`` receives one completion line (with ETA) per cell.
    """
    config = config or cmp_64core()
    factory = mechanisms_factory or standard_mechanism_suite
    token = next(_SWEEP_TOKENS)

    specs: List[tuple] = []
    labels: List[str] = []
    keys: List[tuple] = []  # (bundle, category, mechanism) per cell
    lineup: List[tuple] = []  # (bundle, ordered mechanism names)
    for category in categories:
        bundles = generate_bundles(
            category, config.num_cores, count=bundles_per_category, seed=seed
        )
        for bundle in bundles:
            mechanisms = factory()
            lineup.append((bundle, [mech.name for mech in mechanisms]))
            for mech in mechanisms:
                specs.append((token, config, bundle, mech))
                labels.append(f"{bundle.name}/{mech.name}")
                keys.append((bundle.name, bundle.category, mech.name))

    executor = SweepExecutor(
        workers=workers, seed=seed, progress=_progress_adapter(progress)
    )
    run = executor.run(_analytic_cell, specs, labels=labels)

    sweep = SweepResult()
    by_bundle: Dict[str, Dict[str, MechanismResult]] = {}
    failed_bundles = set()
    for cell in run.cells:
        bundle_name, category, mech_name = keys[cell.index]
        if cell.ok:
            by_bundle.setdefault(bundle_name, {})[mech_name] = cell.value
        else:
            failed_bundles.add(bundle_name)
            sweep.failures.append(
                SweepFailure(
                    bundle=bundle_name,
                    category=category,
                    mechanism=mech_name,
                    error=cell.error,
                )
            )
    for bundle, mech_names in lineup:
        if bundle.name in failed_bundles:
            continue
        results = by_bundle.get(bundle.name, {})
        sweep.scores.append(
            BundleScore(
                bundle=bundle.name,
                category=bundle.category,
                results={name: results[name] for name in mech_names},
            )
        )
    return sweep


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

    def efficiency_vs_opt(self, mechanism: str, reference: str = "MaxEfficiency") -> float:
        return self.efficiency[mechanism] / self.efficiency[reference]


class SimulationSweepResult(List[SimulationScore]):
    """Per-category simulation scores, plus any isolated cell failures.

    Behaves exactly like the plain list the harness used to return; a
    category with a failed (bundle, mechanism) cell is excluded from the
    list and recorded in :attr:`failures` instead.
    """

    def __init__(self, scores=(), failures=None):
        super().__init__(scores)
        self.failures: List[SweepFailure] = list(failures or [])


def _simulation_cell(spec, seed_seq: np.random.SeedSequence):
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
    bundle_index: int = 0,
    seed: int = 2016,
    workers: int = 1,
    per_cell_seeds: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> SimulationSweepResult:
    """Phase-2: simulate one (randomly selected) bundle per category.

    This validates the analytic sweep with runtime-monitored utilities,
    Futility-Scaling partition dynamics, thermal feedback and DRAM
    contention, as in Section 6.3.

    The (bundle, mechanism) runs shard over a
    :class:`~repro.exec.SweepExecutor` with ``workers`` processes and
    produce identical scores for any worker count.  By default every
    cell simulates with ``sim_config.seed``, exactly as the serial
    harness always has; ``per_cell_seeds=True`` instead derives each
    cell's monitoring-noise seed from
    :func:`~repro.workloads.bundles.bundle_seed_sequence` — decorrelated
    across cells, yet stable under any worker count or category
    subsetting.
    """
    config = config or cmp_64core()
    sim_config = sim_config or SimulationConfig()
    factory = mechanisms_factory or standard_mechanism_suite

    specs: List[tuple] = []
    labels: List[str] = []
    keys: List[tuple] = []
    lineup: List[tuple] = []
    for category in categories:
        bundle = generate_bundles(
            category, config.num_cores, count=bundle_index + 1, seed=seed
        )[bundle_index]
        mechanisms = factory()
        lineup.append((bundle, [mech.name for mech in mechanisms]))
        cell_seeds = bundle_seed_sequence(
            sim_config.seed, category, bundle.index, config.num_cores
        ).spawn(len(mechanisms))
        for k, mech in enumerate(mechanisms):
            cell_config = sim_config
            if per_cell_seeds:
                derived = int(cell_seeds[k].generate_state(1, np.uint32)[0])
                cell_config = replace(sim_config, seed=derived)
            specs.append((config, bundle, mech, cell_config))
            labels.append(f"{bundle.name}/{mech.name}")
            keys.append((bundle.name, category, mech.name))

    executor = SweepExecutor(
        workers=workers, seed=seed, progress=_progress_adapter(progress)
    )
    run = executor.run(_simulation_cell, specs, labels=labels)

    by_bundle: Dict[str, Dict[str, Dict[str, float]]] = {}
    failures: List[SweepFailure] = []
    failed_bundles = set()
    for cell in run.cells:
        bundle_name, category, mech_name = keys[cell.index]
        if cell.ok:
            by_bundle.setdefault(bundle_name, {})[mech_name] = cell.value
        else:
            failed_bundles.add(bundle_name)
            failures.append(
                SweepFailure(
                    bundle=bundle_name,
                    category=category,
                    mechanism=mech_name,
                    error=cell.error,
                )
            )

    scores: List[SimulationScore] = []
    for bundle, mech_names in lineup:
        if bundle.name in failed_bundles:
            continue
        cells = by_bundle.get(bundle.name, {})
        scores.append(
            SimulationScore(
                bundle=bundle.name,
                category=bundle.category,
                efficiency={m: cells[m]["efficiency"] for m in mech_names},
                envy_freeness={m: cells[m]["envy_freeness"] for m in mech_names},
                mean_iterations={m: cells[m]["mean_iterations"] for m in mech_names},
            )
        )
    return SimulationSweepResult(scores, failures)
