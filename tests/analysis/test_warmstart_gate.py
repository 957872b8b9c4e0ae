"""Warm-started epochs against cold solves on a Fig-5-style run.

Scale: the 8-core chip, one bundle each of CPBN and CCPP (generated with
seed 2016), simulated for 8 ms at 1 ms epochs with seed 2016, under
EqualBudget and ReBudget-40 (about 1 s).  At every reallocation a probe
solves the epoch's problem twice: cold, with a freshly built mechanism,
and warm, with the persistent one whose state carries over from the
previous epoch.  The warm result drives the run, so the trajectory is
the one production code follows and the cold solve is a per-epoch
control.

Two claims are checked:

* **Invariance.** On the static Figure-5 reference problem (the bbpc
  example bundle, true utilities, no monitoring drift), a warm restart
  takes fewer rounds than the cold solve and lands on its equilibrium
  within the paper's 1% price tolerance (Section 4.1.2).
* **Savings.** Over the simulated epochs the warm chain takes at least
  30% fewer equilibrium iterations than the cold controls.  For
  EqualBudget the warm allocation also stays within 3% of capacity of
  the cold one, and its prices within 2% on average: a warm chain lags
  the moving equilibrium by at most one re-search while the monitored
  utilities drift between epochs.

ReBudget-40 gets only iteration limits.  Its discrete budget cuts can
turn a sub-tolerance equilibrium difference into a different cut
decision, so warm and cold runs may settle on two distinct, equally
valid equilibria.
"""

import numpy as np
import pytest

from repro.cmp import ChipModel, cmp_8core
from repro.core import EqualBudget, ReBudgetMechanism
from repro.sim import ExecutionDrivenSimulator, SimulationConfig
from repro.workloads import generate_bundles, paper_bbpc_bundle

SEED = 2016
MECHANISMS = {
    "EqualBudget": EqualBudget,
    "ReBudget-40": lambda: ReBudgetMechanism(step=40.0),
}


def _divergences(problem, cold, warm):
    """Allocation divergence as a fraction of capacity, and relative price
    divergence, of a warm result from its cold control."""
    allocation = np.abs(warm.allocations - cold.allocations) / problem.capacities
    cold_prices = cold.details["prices"]
    price = np.abs(warm.details["prices"] - cold_prices) / cold_prices
    return float(allocation.max()), float(price.max())


class _ColdControlProbe:
    """Stands in for a mechanism in the simulator and shadows every
    allocation with a cold solve."""

    def __init__(self, factory):
        self.factory = factory
        self.warm_mechanism = factory()
        self.name = self.warm_mechanism.name
        #: (cold iterations, warm iterations, allocation div., price div.)
        self.records = []

    def reset_warm_state(self):
        self.warm_mechanism.reset_warm_state()

    def allocate(self, problem):
        cold = self.factory().allocate(problem)
        warm = self.warm_mechanism.allocate(problem)
        self.records.append(
            (cold.iterations, warm.iterations, *_divergences(problem, cold, warm))
        )
        return warm


@pytest.fixture(scope="module")
def reference():
    """The bbpc reference problem solved cold, then warm from the cold result."""
    problem = ChipModel(cmp_8core(), paper_bbpc_bundle().apps).build_problem()
    mechanism = EqualBudget()
    cold = mechanism.allocate(problem)
    warm = mechanism.allocate(problem)
    return cold, warm, _divergences(problem, cold, warm)


@pytest.fixture(scope="module")
def epochs():
    """Per mechanism, one probe record per reallocation, as an array."""
    config = cmp_8core()
    sim_config = SimulationConfig(duration_ms=8.0, seed=SEED)
    records = {name: [] for name in MECHANISMS}
    for category in ("CPBN", "CCPP"):
        bundle = generate_bundles(category, config.num_cores, count=1, seed=SEED)[0]
        chip = ChipModel(config, bundle.apps)
        for name, factory in MECHANISMS.items():
            probe = _ColdControlProbe(factory)
            ExecutionDrivenSimulator(chip, probe, sim_config).run()
            records[name].extend(probe.records)
    return {name: np.array(rows) for name, rows in records.items()}


def _iterations(rows):
    """(cold, warm) total equilibrium iterations."""
    return rows[:, 0].sum(), rows[:, 1].sum()


def test_warm_restart_takes_fewer_iterations_on_the_reference_problem(reference):
    cold, warm, _ = reference
    assert warm.iterations < cold.iterations


def test_reference_warm_equilibrium_price_is_within_the_tolerance_of_cold(reference):
    _, _, (allocation_divergence, price_divergence) = reference
    # The paper's 1% price-convergence tolerance.
    assert price_divergence <= 0.01
    assert allocation_divergence <= 0.01


def test_warm_epochs_take_fewer_iterations_overall(epochs):
    cold, warm = _iterations(np.concatenate(list(epochs.values())))
    assert warm < cold
    assert 1.0 - warm / cold >= 0.30


def test_equal_budget_warm_epochs_save_iterations_and_track_cold(epochs):
    rows = epochs["EqualBudget"]
    cold, warm = _iterations(rows)
    assert 1.0 - warm / cold >= 0.30
    assert rows[:, 2].max() <= 0.03
    assert rows[:, 3].mean() <= 0.02
