"""The Fig-4 sweep shards by bundle: one work item per bundle, one cell
per (bundle, mechanism).

A work item builds its bundle's problem once and runs the line-up
through ``allocate_all``.  These tests pin what that must keep: per-cell
beats as cells complete, failures confined to the cells they belong to,
identical utility-work totals and scores for any worker count, and
picklable items and results under the ``spawn`` start method.
"""

import pytest

from repro.analysis import run_analytic_sweep
from repro.cmp import cmp_8core
from repro.core import (
    BalancedBudget,
    EqualBudget,
    EqualShare,
    ReBudgetMechanism,
    standard_mechanism_suite,
)
from repro.core import mechanisms as mechanisms_module
from repro.exec import executor as executor_module

#: Two 8-core CPBN bundles; *namd* is in CPBN-00 only (seed 2016).
SWEEP = dict(config=cmp_8core(), bundles_per_category=2, categories=("CPBN",))


def _markets():
    """Every market mechanism of the suite; no MaxEfficiency, whose
    memoized tables make its tallies depend on what a process ran before."""
    return [
        EqualShare(),
        EqualBudget(),
        BalancedBudget(),
        ReBudgetMechanism(step=20.0),
        ReBudgetMechanism(step=40.0),
    ]


def _cells(sweep):
    return [
        (score.bundle, name, result.efficiency, result.envy_freeness,
         result.iterations, result.allocations.tobytes())
        for score in sweep.scores
        for name, result in score.results.items()
    ]


def test_eval_counts_are_the_same_for_any_worker_count():
    serial = run_analytic_sweep(mechanisms_factory=_markets, workers=1, **SWEEP)
    pooled = run_analytic_sweep(mechanisms_factory=_markets, workers=2, **SWEEP)
    assert serial.eval_counts["total_calls"] > 0
    assert serial.eval_counts == pooled.eval_counts


def test_spawned_workers_score_bitwise_as_serial(monkeypatch):
    serial = run_analytic_sweep(workers=1, **SWEEP)
    monkeypatch.setattr(executor_module, "_START_METHOD", "spawn")
    spawned = run_analytic_sweep(workers=2, **SWEEP)
    assert spawned.failures == []
    assert _cells(serial) and _cells(spawned) == _cells(serial)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_market_fails_only_its_bundles_stacked_cells(monkeypatch, workers):
    real = mechanisms_module.find_equilibria

    def explode_on_namd(markets, warm_starts):
        if "namd" in markets[0].problem.player_names:
            raise RuntimeError("namd market diverged")
        return real(markets, warm_starts)

    monkeypatch.setattr(mechanisms_module, "find_equilibria", explode_on_namd)
    sweep = run_analytic_sweep(workers=workers, **SWEEP)
    assert [s.bundle for s in sweep.scores] == ["CPBN-01"]
    assert {(f.bundle, f.mechanism) for f in sweep.failures} == {
        ("CPBN-00", name) for name in ("EqualBudget", "Balanced", "ReBudget-20", "ReBudget-40")
    }
    assert all("namd market diverged" in f.error for f in sweep.failures)


#: Beats of the in-process sweep below, and what the probe saw of them.
_BEATS = []
_SEEN = []


class _Probe:
    """Records how many beats had arrived when it ran."""

    name = "Probe"

    def allocate(self, problem):
        _SEEN.append(list(_BEATS))
        return EqualShare().allocate(problem)


def test_in_process_beats_arrive_as_each_cell_completes():
    _BEATS.clear()
    _SEEN.clear()
    run_analytic_sweep(
        mechanisms_factory=lambda: [EqualBudget(), BalancedBudget(), _Probe()],
        workers=1,
        progress=_BEATS.append,
        **SWEEP,
    )
    # The stacked cells of a bundle had beaten before its probe ran,
    # each on its own; the bundle's end had not come yet.
    assert [len(seen) for seen in _SEEN] == [2, 5]
    assert [line.split(" ")[1] for line in _SEEN[0]] == [
        "CPBN-00/EqualBudget:", "CPBN-00/Balanced:",
    ]
    assert len(_BEATS) == 6


def test_every_cell_keeps_its_own_beat():
    beats = []
    run_analytic_sweep(workers=1, progress=beats.append, **SWEEP)
    names = [m.name for m in standard_mechanism_suite()]
    assert sorted(line.split(" ")[1] for line in beats) == sorted(
        f"{bundle}/{name}:" for bundle in ("CPBN-00", "CPBN-01") for name in names
    )
