"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload runs a fixed set of units built from seeded bundles.  The
benchmark's ``--seed`` sets the order in which a run visits them and,
for ``fig5-sim8``, the monitoring-noise stream.  Keeping the set fixed
keeps the cost of a run independent of the seed: bundles of one
category differ by up to 1.5x in host time, which would otherwise swamp
any change being measured.  Every unit of every seed has reference
outputs in ``references.json`` (written by ``record.py``).

A workload is ``prepare(seed)`` (the timed set-up), which returns the
inputs with the ordered list of ``units``, and ``run_unit``, which
executes one unit and returns its per-op host times and the outputs to
check.  A run cycles through ``units`` until its time is up.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import run_analytic_sweep, run_simulation_experiment
from repro.cmp import ChipModel, app_by_name, cmp_8core, cmp_64core
from repro.core import (
    AllocationMechanism,
    ReBudgetConfig,
    find_equilibrium,
    run_rebudget,
    standard_mechanism_suite,
)
from repro.sim import ContextSwitch, SimulationConfig
from repro.workloads import BUNDLE_CATEGORIES, generate_bundles

#: Every bundle is the first one ``generate_bundles`` draws for its
#: category with this seed: the ``<category>-00`` bundles of the
#: committed full-scale Fig-4 sweep.
BUNDLE_SEED = 2016

MECHANISMS = tuple(m.name for m in standard_mechanism_suite())
#: market64's cold solves: one equal-budget equilibrium, two ReBudgets.
SOLVES = ("equilibrium", "rebudget-20", "rebudget-40")
BUDGET = 100.0
#: Fig-5 runs: 30 ms, with core 3 switching to mcf at 15 ms.
SIM_MS = 30.0
SWITCH = (15.0, 3, "mcf")
#: Monitoring-noise seeds a fig5-sim8 run may use (``1 + seed % 4``).
NOISE_SEEDS = 4
#: fig5-sim8's cells: every category once and every mechanism once.
FIG5_CELLS = tuple(zip(BUNDLE_CATEGORIES, MECHANISMS))


@dataclass
class UnitResult:
    """One executed unit: per-op host seconds and the outputs to check.

    ``checks`` holds ``(reference key, ops covered, outputs)``; outputs
    are ``None`` when the op raised.  ``seconds`` is the unit's whole
    host time, filled in by the caller.
    """

    op_seconds: List[float]
    checks: List[Tuple[str, int, Optional[dict]]]
    sim_ms: float = 0.0
    seconds: float = 0.0


def fingerprint(values) -> List[float]:
    """Per column: sum, index-weighted sum and sum of squares.

    A compact, tolerance-comparable stand-in for an (N, M) allocation
    or an N-vector of budgets.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    weights = np.arange(1, x.shape[0] + 1, dtype=float)
    return np.concatenate([x.sum(axis=0), weights @ x, (x * x).sum(axis=0)]).tolist()


def shuffled(seed: int, items) -> list:
    items = list(items)
    return [items[i] for i in np.random.default_rng(seed).permutation(len(items))]


# ----------------------------------------------------------------------
# fig4-sweep64
# ----------------------------------------------------------------------

class Fig4Sweep:
    """``run_analytic_sweep`` on the 64-core chip, one bundle per call.

    A unit is one category's bundle; an op is one (bundle, mechanism)
    cell, timed from the sweep's per-cell progress callback.
    """

    name = "fig4-sweep64"
    variants = 1

    def prepare(self, seed: int) -> dict:
        return {"config": cmp_64core(), "units": shuffled(seed, BUNDLE_CATEGORIES)}

    def run_unit(self, inputs: dict, category: str) -> UnitResult:
        stamps = [time.perf_counter()]
        sweep = run_analytic_sweep(
            config=inputs["config"],
            bundles_per_category=1,
            categories=[category],
            seed=BUNDLE_SEED,
            workers=1,
            progress=lambda _line: stamps.append(time.perf_counter()),
        )
        results = sweep.scores[0].results if sweep.scores else {}
        checks = []
        for mech in MECHANISMS:
            result = results.get(mech)
            outputs = None
            if result is not None:
                outputs = {
                    "allocations": fingerprint(result.allocations),
                    "efficiency": float(result.efficiency),
                    "envy_freeness": float(result.envy_freeness),
                    "iterations": int(result.iterations),
                    "converged": bool(result.converged),
                }
            checks.append((f"{category}-00/{mech}", 1, outputs))
        return UnitResult(op_seconds=np.diff(stamps).tolist(), checks=checks)


# ----------------------------------------------------------------------
# fig5-sim8
# ----------------------------------------------------------------------

class _StampedMechanism(AllocationMechanism):
    """Delegates to a mechanism and stamps the host time of each call.

    The simulator calls the mechanism once per 1 ms epoch, so the gap
    between consecutive stamps is exactly one epoch of host work.
    """

    def __init__(self, inner: AllocationMechanism, stamps: List[float]):
        self.inner = inner
        self.name = inner.name
        self.stamps = stamps

    def allocate(self, problem):
        self.stamps.append(time.perf_counter())
        return self.inner.allocate(problem)

    def reset_warm_state(self) -> None:
        self.inner.reset_warm_state()


class Fig5Sim:
    """``run_simulation_experiment`` on the 8-core chip, one cell per call.

    A unit is one (bundle, mechanism) 30 ms run; an op is one simulated
    1 ms epoch.
    """

    name = "fig5-sim8"
    variants = NOISE_SEEDS

    def prepare(self, seed: int) -> dict:
        time_ms, core, app = SWITCH
        sim_config = SimulationConfig(
            duration_ms=SIM_MS,
            seed=1 + seed % NOISE_SEEDS,
            context_switches=(ContextSwitch(time_ms, core, app_by_name(app)),),
        )
        return {
            "config": cmp_8core(),
            "sim_config": sim_config,
            "units": shuffled(seed, FIG5_CELLS),
        }

    def run_unit(self, inputs: dict, unit: Tuple[str, str]) -> UnitResult:
        category, mech = unit
        stamps: List[float] = []

        def factory():
            lineup = {m.name: m for m in standard_mechanism_suite()}
            return [_StampedMechanism(lineup[mech], stamps)]

        config = inputs["sim_config"]
        scores = run_simulation_experiment(
            config=inputs["config"],
            categories=[category],
            sim_config=config,
            mechanisms_factory=factory,
            seed=BUNDLE_SEED,
            workers=1,
        )
        outputs = None
        if scores:
            score = scores[0]
            outputs = {
                "efficiency": float(score.efficiency[mech]),
                "envy_freeness": float(score.envy_freeness[mech]),
                "mean_iterations": float(score.mean_iterations[mech]),
            }
        # Drop the first epoch (cold solve after warm-up); the last one
        # has no closing stamp.
        gaps = np.diff(stamps)[1:].tolist()
        key = f"{category}-00/noise{config.seed}/{mech}"
        return UnitResult(
            op_seconds=gaps,
            checks=[(key, config.num_epochs, outputs)],
            sim_ms=config.num_epochs * config.epoch_ms,
        )


# ----------------------------------------------------------------------
# market64
# ----------------------------------------------------------------------

def solve(problem, kind: str) -> dict:
    """One cold market solve on a fresh market with budgets of 100."""
    market = problem.build_market([BUDGET] * problem.num_players)
    if kind == "equilibrium":
        eq = find_equilibrium(market)
        iterations, budgets = eq.iterations, market.budgets
    else:
        step = float(kind.split("-")[1])
        rebudget = run_rebudget(market, ReBudgetConfig(initial_budget=BUDGET, step=step))
        eq = rebudget.final_equilibrium
        iterations = rebudget.total_equilibrium_iterations
        budgets = rebudget.final_budgets
    return {
        "prices": np.asarray(eq.state.prices, dtype=float).tolist(),
        "allocations": fingerprint(eq.state.allocations),
        "iterations": int(iterations),
        "converged": bool(eq.converged),
        "budgets": fingerprint(budgets),
    }


class Market64:
    """Cold 64-player market solves on problems built during set-up.

    Set-up builds one problem per category; a unit is one solve.
    """

    name = "market64"
    variants = 1

    def prepare(self, seed: int) -> dict:
        config = cmp_64core()
        problems = {}
        for category in BUNDLE_CATEGORIES:
            bundle = generate_bundles(category, 64, count=1, seed=BUNDLE_SEED)[0]
            problems[category] = ChipModel(config, bundle.apps).build_problem()
        units = [(c, kind) for c in BUNDLE_CATEGORIES for kind in SOLVES]
        return {"problems": problems, "units": shuffled(seed, units)}

    def run_unit(self, inputs: dict, unit: Tuple[str, str]) -> UnitResult:
        category, kind = unit
        start = time.perf_counter()
        try:
            outputs: Optional[dict] = solve(inputs["problems"][category], kind)
        except Exception:  # an op that raises counts as failed
            traceback.print_exc()
            outputs = None
        elapsed = time.perf_counter() - start
        return UnitResult(
            op_seconds=[elapsed], checks=[(f"{category}-00/{kind}", 1, outputs)]
        )


WORKLOADS: Dict[str, object] = {
    w.name: w for w in (Fig4Sweep(), Fig5Sim(), Market64())
}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

#: Floats must match the reference to this relative/absolute tolerance;
#: integers and flags must match exactly.
RTOL = 1e-6
ATOL = 1e-9


def mismatches(outputs: dict, reference: dict) -> List[str]:
    """Names of the outputs that miss their reference values."""
    bad = []
    for name, expected in reference.items():
        got = outputs.get(name)
        if isinstance(expected, (bool, int)):
            ok = got == expected and type(got) is type(expected)
        else:
            ok = (
                got is not None
                and np.shape(got) == np.shape(expected)
                and np.allclose(got, expected, rtol=RTOL, atol=ATOL)
            )
        if not ok:
            bad.append(name)
    return bad


@dataclass
class CheckTally:
    """Counts ops attempted and ops whose outputs missed the reference."""

    references: dict
    attempted: int = 0
    failed: int = 0
    misses: List[str] = field(default_factory=list)

    def add(self, key: str, ops: int, outputs: Optional[dict]) -> None:
        self.attempted += ops
        reference = self.references.get(key)
        if outputs is None:
            problem = ["raised"]
        elif reference is None:
            problem = ["no reference"]
        else:
            problem = mismatches(outputs, reference)
        if problem:
            self.failed += ops
            self.misses.append(f"{key}: {', '.join(problem)}")
