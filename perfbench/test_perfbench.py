"""Tests of the benchmark itself: tracer coverage and consistency,
reference coverage, the output checks, and the external cross-check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import importlib
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import suite  # noqa: E402
import tracer  # noqa: E402
from repro.analysis import run_analytic_sweep, run_simulation_experiment  # noqa: E402
from repro.cmp import ChipModel, cmp_8core  # noqa: E402
from repro.core import EqualBudget, MaxEfficiency  # noqa: E402
from repro.sim import SimulationConfig  # noqa: E402
from repro.workloads import generate_bundles  # noqa: E402

REFERENCES = json.loads((HERE / "references.json").read_text())
FIG4_CSV = ROOT / "benchmarks" / "_results" / "full_scale_fig4.csv"


def _holders(functions):
    """(module, attribute, original) for every binding of ``functions``."""
    by_id = {id(fn): fn for fn in functions}
    found = []
    for module in tracer._checkout_modules():
        for attr, value in vars(module).items():
            if by_id.get(id(value)) is value:
                found.append((module, attr, value))
    return found


@pytest.fixture
def installed():
    t = tracer.Tracer()
    functions = list(tracer.originals().values())
    holders = _holders(functions)
    t.install()
    try:
        yield t, holders, functions
    finally:
        t.uninstall()


def test_every_importing_module_is_wrapped(installed):
    t, holders, functions = installed
    names = {(m.__name__, attr) for m, attr, _ in holders}
    # The same function is reached through several by-name imports.
    assert ("repro.core.mechanisms", "envy_freeness") in names
    assert ("repro.sim.engine", "envy_freeness") in names
    assert ("repro.core.rebudget", "find_equilibrium") in names
    for module, attr, original in holders:
        wrapped = vars(module)[attr]
        assert getattr(wrapped, tracer.MARK) is original, f"{module.__name__}.{attr}"
    assert _holders(functions) == [], "a checkout module still calls an untraced original"
    for _span, module, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert hasattr(vars(cls)[attr], tracer.MARK), f"{cls_name}.{attr}"
    mechanisms = tracer._mechanism_classes()
    assert {c.__name__ for c in mechanisms} >= {
        "EqualShare", "EqualBudget", "BalancedBudget", "ReBudgetMechanism", "MaxEfficiency",
    }
    for cls in mechanisms:
        assert hasattr(vars(cls)["allocate"], tracer.MARK), cls.__name__


def test_uninstall_restores_every_original():
    holders = _holders(tracer.originals().values())
    for _span, module, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        holders.append((cls, attr, vars(cls)[attr]))
    for cls in tracer._mechanism_classes():
        holders.append((cls, "allocate", vars(cls)["allocate"]))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert tracer.leftover_wrappers() == []
    for owner, attr, original in holders:
        assert vars(owner)[attr] is original


def test_spans_are_consistent(installed):
    t = installed[0]
    config = cmp_8core()
    start = time.perf_counter()
    run_analytic_sweep(config=config, bundles_per_category=1, categories=["CPBN"], workers=1)
    run_simulation_experiment(
        config=config,
        categories=["BBPN"],
        sim_config=SimulationConfig(duration_ms=3.0),
        mechanisms_factory=lambda: [EqualBudget(), MaxEfficiency()],
        workers=1,
    )
    bundle = generate_bundles("CCPP", 8, count=1)[0]
    problem = ChipModel(config, bundle.apps).build_problem()
    for kind in suite.SOLVES:
        suite.solve(problem, kind)
    wall = time.perf_counter() - start

    layers = t.layers()
    for span in list(tracer.originals()) + [m[0] for m in tracer.METHODS]:
        assert layers.get(span, {}).get("calls", 0) > 0, f"{span} never traced"
    assert "core.allocate.MaxEfficiency" in layers
    for span, stats in layers.items():
        assert stats["self_s"] >= 0.0, span
        assert stats["self_s"] <= stats["total_s"] + 1e-12, span
    remainder = wall - t.top_level_s()
    assert remainder >= 0.0
    total_self = sum(stats["self_s"] for stats in layers.values())
    assert total_self + remainder == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert t.counters["core.find_equilibrium.iterations"] > 0
    assert t.counters["core.run_rebudget.rounds"] > 0
    assert t.counters["core.max_efficiency_allocation.steps"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_references_cover_every_unit():
    expected = {
        "fig4-sweep64": {
            f"{c}-00/{m}" for c in suite.BUNDLE_CATEGORIES for m in suite.MECHANISMS
        },
        "fig5-sim8": {
            f"{c}-00/noise{1 + v}/{m}"
            for v in range(suite.NOISE_SEEDS)
            for c, m in suite.FIG5_CELLS
        },
        "market64": {
            f"{c}-00/{kind}" for c in suite.BUNDLE_CATEGORIES for kind in suite.SOLVES
        },
    }
    for name in suite.WORKLOADS:
        assert set(REFERENCES[name]) == expected[name], name


def test_a_miss_counts_every_op_of_its_unit():
    refs = {"a": {"x": 1.0, "n": 3, "ok": True}}
    tally = suite.CheckTally(refs)
    tally.add("a", 30, {"x": 1.0 + 1e-9, "n": 3, "ok": True})
    assert (tally.attempted, tally.failed) == (30, 0)
    tally.add("a", 30, {"x": 1.001, "n": 3, "ok": True})
    tally.add("a", 1, {"x": 1.0, "n": 4, "ok": True})
    tally.add("a", 1, None)
    tally.add("b", 1, {"x": 1.0})
    assert (tally.attempted, tally.failed) == (63, 33)
    assert len(tally.misses) == 4


def test_fig4_references_match_the_committed_full_scale_sweep():
    """EqualShare and MaxEfficiency cells agree with the CSV to 6 decimals.

    The CSV's market-mechanism rows were produced by an older market
    implementation and are not compared.
    """
    rows = {}
    with FIG4_CSV.open() as handle:
        for row in csv.DictReader(handle):
            rows[(row["bundle"], row["mechanism"])] = row
    refs = REFERENCES["fig4-sweep64"]
    for category in ("CPBN", "CCPP", "CPBB", "BBNN", "BBPN", "BBCN"):
        for mech in ("EqualShare", "MaxEfficiency"):
            ref = refs[f"{category}-00/{mech}"]
            row = rows[(f"{category}-00", mech)]
            assert f"{ref['efficiency']:.6f}" == row["efficiency"], (category, mech)
            assert f"{ref['envy_freeness']:.6f}" == row["envy_freeness"], (category, mech)
            assert ref["iterations"] == int(row["iterations"]), (category, mech)
