"""Frozen Fig-4 scoring outputs: allocations, utilities, EF and the optimum.

Writes ``fixtures/scoring_reference.json`` next to this file: for every
mechanism of :func:`standard_mechanism_suite` on a fixed set of
problems, the allocations, per-player utilities, efficiency and
envy-freeness (Definition 3) of its result, plus MaxEfficiency's
``steps``; every float is stored bitwise as ``float.hex``.  One 64-core
case also records its full envy matrix.  ``test_scoring_reference.py``
re-runs :func:`case_runners` and asserts the current code reproduces
every recorded value exactly.

Problems:

* the six ``<category>-00`` bundles (``generate_bundles(c, n, count=1,
  seed=2016)``) on the 8-core chip;
* CCPP-00 and BBNN-00 on the 64-core chip;
* the 3-resource cache/power/bandwidth problem of the CPBN bundle drawn
  with seed 9 on the 8-core chip;
* a two-player log-utility market with the non-power-of-two quantum
  0.01 (the analytic water-filling case of ``test_optimum.py``).

MaxEfficiency searches the integer quantum lattice: its allocations are
the lattice points ``coords × quanta`` and its utilities ``U(coords ×
quanta)``.  With the chip's power-of-two quanta these equal running sums
of quanta; the non-power-of-two cases (``log-q0.01`` and the 0.1 GB/s
bandwidth axis) record the lattice points.

MaxEfficiency's optima are host-dependent where identical players tie:
its exchange pass breaks ties by numpy's default ``argsort``, which is
unstable and SIMD-dispatched.  With ``kind="stable"``, or with
``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3"``, the
``64core/BBNN-00/MaxEfficiency`` case no longer matches.  A miss there
on a new machine is a tie resolved differently, which
``numpy.show_runtime()`` (printed by CI before the suite) helps trace.

Regenerate (only when a change to the numbers is intended)::

    PYTHONPATH=src python tests/core/make_scoring_reference.py
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.cmp import ChipModel, cmp_8core, cmp_64core
from repro.cmp.bandwidth import build_bandwidth_problem
from repro.core import AllocationProblem, envy_matrix, standard_mechanism_suite
from repro.utility import LogUtility
from repro.workloads import BUNDLE_CATEGORIES, generate_bundles

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "scoring_reference.json"

SEED = 2016
#: Categories scored on the 64-core chip as well.
CATEGORIES_64 = ("CCPP", "BBNN")
#: The 64-core case whose whole envy matrix is recorded.
MATRIX_CASE = ("64core/CCPP-00", "EqualBudget")


def _hex(values) -> List:
    """Nested lists of ``float.hex`` strings (bitwise float encoding)."""
    array = np.asarray(values, dtype=float)
    if array.ndim == 0:
        return float(array).hex()
    return [_hex(row) for row in array]


def _bundle_problem(config, category: str) -> AllocationProblem:
    bundle = generate_bundles(category, config.num_cores, count=1, seed=SEED)[0]
    return ChipModel(config, bundle.apps).build_problem()


def _bandwidth_problem() -> AllocationProblem:
    bundle = generate_bundles("CPBN", 8, count=1, seed=9)[0]
    return build_bandwidth_problem(ChipModel(cmp_8core(), bundle.apps))


def _log_problem() -> AllocationProblem:
    return AllocationProblem(
        utilities=[LogUtility([1.0], [1.0]), LogUtility([2.0], [1.0])],
        capacities=np.array([3.0]),
        resource_names=["r"],
        player_names=["a", "b"],
        quanta=np.array([0.01]),
    )


def problem_builders() -> Dict[str, Callable[[], AllocationProblem]]:
    """Every scored problem by name, each a fresh build."""
    builders: Dict[str, Callable[[], AllocationProblem]] = {}
    for category in BUNDLE_CATEGORIES:
        builders[f"8core/{category}-00"] = (
            lambda category=category: _bundle_problem(cmp_8core(), category)
        )
    for category in CATEGORIES_64:
        builders[f"64core/{category}-00"] = (
            lambda category=category: _bundle_problem(cmp_64core(), category)
        )
    builders["8core/bandwidth-CPBN-s9"] = _bandwidth_problem
    builders["log-q0.01"] = _log_problem
    return builders


def _score(problem: AllocationProblem, mechanism_name: str, matrix: bool) -> Dict:
    mechanism = next(
        m for m in standard_mechanism_suite() if m.name == mechanism_name
    )
    result = mechanism.allocate(problem)
    record = {
        "allocations": _hex(result.allocations),
        "utilities": _hex(result.utilities),
        "efficiency": _hex(result.efficiency),
        "envy_freeness": _hex(result.envy_freeness),
    }
    if mechanism_name == "MaxEfficiency":
        record["steps"] = int(result.iterations)
    if matrix:
        record["envy_matrix"] = _hex(envy_matrix(problem.utilities, result.allocations))
    return record


def case_runners() -> Dict[str, Callable[[], Dict]]:
    """Every recorded ``<problem>/<mechanism>`` case by name.

    Each case scores a fresh mechanism (so warm-startable mechanisms
    solve cold) on a problem built once and shared by its cases.
    """
    runners: Dict[str, Callable[[], Dict]] = {}
    for name, build in problem_builders().items():
        shared = lru_cache(maxsize=None)(build)
        for mechanism in standard_mechanism_suite():
            runners[f"{name}/{mechanism.name}"] = (
                lambda shared=shared, m=mechanism.name, name=name: _score(
                    shared(), m, matrix=(name, m) == MATRIX_CASE
                )
            )
    return runners


def run_cases() -> Dict[str, Dict]:
    return {name: run() for name, run in case_runners().items()}


def main() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(run_cases(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
