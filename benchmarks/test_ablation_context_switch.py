"""Ablation: why the market re-runs every 1 ms (Section 4.3).

The paper triggers budget re-assignment every millisecond "to handle
the changing resource demands due to context switches and application
phase changes".  This benchmark injects context switches into the
execution-driven simulator and compares re-allocation every epoch
against a static allocation computed once at the start, which keeps
its first allocation through the switches.  A third policy re-allocates
only when a switch forces it (the engine re-runs the market on every
switch, even between scheduled market epochs).

Two scenarios, both switching two cores at t=5 ms:

* the two mcf cores leave for compute-bound povray and namd.  They want
  power, not the cache mcf held; the static allocation keeps their
  extra power at the 4.6 W mcf held, where re-allocation grants them
  7.7 W, so the 1 ms market wins on efficiency and envy-freeness.  The
  switch-only policy ties with it: its one re-solve at the switch
  already moves the power.
* the two apsi cores are replaced by mcf.  Four mcf cores now share
  3 MB of market cache, so none reaches its 1.5 MB working set under
  any policy and every mcf core runs below its cliff; re-allocation
  gains a little efficiency and no envy-freeness.  The switch-only
  policy does worst: it solves at the switch on monitors that have just
  been reset for the incoming mcf cores, and keeps that allocation.
"""

from repro.analysis import format_table
from repro.cmp import ChipModel, cmp_8core
from repro.cmp.spec_suite import app_by_name
from repro.core import EqualBudget
from repro.sim import ContextSwitch, ExecutionDrivenSimulator, SimulationConfig
from repro.workloads import paper_bbpc_bundle


class _AllocateOnce(EqualBudget):
    """EqualBudget that keeps its first allocation for the whole run.

    The engine re-runs the mechanism at every context switch even
    between scheduled market epochs, so a long
    ``reallocation_period_epochs`` alone does not hold an allocation
    fixed; this wrapper does.
    """

    def __init__(self):
        super().__init__()
        self._first = None

    def allocate(self, problem):
        if self._first is None:
            self._first = super().allocate(problem)
        return self._first


SCENARIOS = {
    # Bundle: apsi, apsi, swim, swim, mcf, mcf, hmmer, sixtrack.
    "mcf cores -> povray, namd": (
        ContextSwitch(5.0, 4, app_by_name("povray")),
        ContextSwitch(5.0, 5, app_by_name("namd")),
    ),
    "apsi cores -> mcf": (
        ContextSwitch(5.0, 0, app_by_name("mcf")),
        ContextSwitch(5.0, 1, app_by_name("mcf")),
    ),
}
#: Policy -> (mechanism, reallocation_period_epochs).
POLICIES = {
    "re-allocate every 1 ms": (EqualBudget, 1),
    "allocate once": (_AllocateOnce, 1),
    "re-allocate at switches": (EqualBudget, 10_000),
}


def test_reallocation_vs_static_under_context_switches(benchmark, report):
    chip = ChipModel(cmp_8core(), paper_bbpc_bundle().apps)

    def run_all():
        out = {}
        for scenario, switches in SCENARIOS.items():
            for policy, (mechanism, period) in POLICIES.items():
                cfg = SimulationConfig(
                    duration_ms=15.0,
                    seed=21,
                    context_switches=switches,
                    reallocation_period_epochs=period,
                )
                out[scenario, policy] = ExecutionDrivenSimulator(
                    chip, mechanism(), cfg
                ).run()
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The paper's premise: periodic re-allocation wins once a switch
    # moves demand onto a resource the static allocation withholds.
    scenario = "mcf cores -> povray, namd"
    dynamic = results[scenario, "re-allocate every 1 ms"]
    static = results[scenario, "allocate once"]
    assert dynamic.efficiency > static.efficiency
    assert dynamic.envy_freeness > static.envy_freeness
    # With four mcf cores below their cliff either way, re-allocation
    # still must not lose efficiency (see the module docstring).
    scenario = "apsi cores -> mcf"
    assert (
        results[scenario, "re-allocate every 1 ms"].efficiency
        > results[scenario, "allocate once"].efficiency
    )

    rows = [
        [scenario, policy, r.efficiency, r.envy_freeness, r.mean_market_iterations]
        for (scenario, policy), r in results.items()
    ]
    report(
        format_table(
            ["switch at t=5 ms", "policy", "measured eff", "EF", "mean market iters"],
            rows,
            title="Ablation: 1 ms re-allocation vs static allocation under "
            "context switches",
        )
    )
