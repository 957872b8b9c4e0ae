"""Frozen utility grids: true, monitored and the true-utility sim path.

Writes ``fixtures/utility_grid_reference.json`` next to this file.
``test_utility_grid_reference.py`` re-runs :func:`run_cases` and asserts
the current code reproduces every recorded value exactly.

Cases:

* ``true/<cores>core/<category>-00/<convexify|raw>``: the
  :func:`build_true_utility` grid of every core of the six
  ``<category>-00`` bundles (``generate_bundles(c, n, count=1,
  seed=2016)``), with the Talus convexification on and off.  8-core
  grids are stored as ``float.hex`` (one space-separated line per
  axis and per grid row); each 64-core grid as the sha256 of its
  float64 bytes (axes, then values), to keep the file small.
* ``monitored``: every utility the market saw in one 30 ms 8-core
  CPBN-00 run with runtime monitors (core 3 switches to *mcf* at
  15 ms), one sha256 per epoch and core, plus the run's per-epoch
  extras.
* ``true-utility-sim``: the same run with ``use_monitors=False``: its
  per-epoch extras, efficiency and envy-freeness.

Floats are stored bitwise as ``float.hex``.  Regenerate (only when a
change to the numbers is intended)::

    PYTHONPATH=src python tests/cmp/make_utility_grid_reference.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.cmp import ChipModel, app_by_name, cmp_8core, cmp_64core
from repro.cmp.utility_builder import build_true_utility
from repro.core import EqualBudget
from repro.sim import ContextSwitch, ExecutionDrivenSimulator, SimulationConfig
from repro.workloads import BUNDLE_CATEGORIES, generate_bundles

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "utility_grid_reference.json"

SEED = 2016
SIM_CATEGORY = "CPBN"
SIM_MS = 30.0
SWITCH = (15.0, 3, "mcf")


def _hex(values) -> List:
    """Nested lists of ``float.hex`` strings (bitwise float encoding)."""
    array = np.asarray(values, dtype=float)
    if array.ndim == 0:
        return float(array).hex()
    return [_hex(row) for row in array]


def _sha256(grid) -> str:
    """Digest of a grid's axes and values as little-endian float64 bytes."""
    digest = hashlib.sha256()
    for part in (grid.xs, grid.ys, grid.values):
        digest.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return digest.hexdigest()


def _row(values) -> str:
    """One space-separated line of ``float.hex`` strings."""
    return " ".join(_hex(values))


def _grid_hex(grid) -> Dict:
    return {
        "xs": _row(grid.xs),
        "ys": _row(grid.ys),
        "values": [_row(row) for row in grid.values],
    }


def _true_grids(config, category: str, convexify: bool) -> List:
    bundle = generate_bundles(category, config.num_cores, count=1, seed=SEED)[0]
    chip = ChipModel(config, bundle.apps)
    encode = _grid_hex if config.num_cores == 8 else _sha256
    return [
        encode(build_true_utility(core, config, convexify=convexify))
        for core in chip.cores
    ]


class _Recorder(EqualBudget):
    """EqualBudget that records every problem's utilities it is handed."""

    def __init__(self):
        super().__init__()
        self.seen: List[List[str]] = []

    def allocate(self, problem):
        self.seen.append([_sha256(u) for u in problem.utilities])
        return super().allocate(problem)


def _simulate(use_monitors: bool):
    bundle = generate_bundles(SIM_CATEGORY, 8, count=1, seed=SEED)[0]
    time_ms, core, app = SWITCH
    config = SimulationConfig(
        duration_ms=SIM_MS,
        use_monitors=use_monitors,
        context_switches=(ContextSwitch(time_ms, core, app_by_name(app)),),
    )
    mechanism = _Recorder()
    sim = ExecutionDrivenSimulator(ChipModel(cmp_8core(), bundle.apps), mechanism, config)
    return sim.run(), mechanism.seen


def _extras(result) -> List[str]:
    """Per-epoch extras, one line per epoch (cores in order, cache then power)."""
    return [_row(record.extras.ravel()) for record in result.trace.epochs]


def _monitored() -> Dict:
    result, seen = _simulate(use_monitors=True)
    return {
        "grids_sha256": seen,
        "extras": _extras(result),
    }


def _true_utility_sim() -> Dict:
    result, _ = _simulate(use_monitors=False)
    return {
        "extras": _extras(result),
        "efficiency": _hex(result.efficiency),
        "envy_freeness": _hex(result.envy_freeness),
    }


def case_runners() -> Dict[str, Callable[[], object]]:
    """Every recorded case by name, each a fresh computation."""
    runners: Dict[str, Callable[[], object]] = {}
    for config in (cmp_8core(), cmp_64core()):
        for category in BUNDLE_CATEGORIES:
            for convexify in (True, False):
                name = "true/{}core/{}-00/{}".format(
                    config.num_cores, category, "convexify" if convexify else "raw"
                )
                runners[name] = (
                    lambda config=config, category=category, convexify=convexify:
                    _true_grids(config, category, convexify)
                )
    runners["monitored"] = _monitored
    runners["true-utility-sim"] = _true_utility_sim
    return runners


def run_cases() -> Dict[str, object]:
    return {name: run() for name, run in case_runners().items()}


def main() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(run_cases(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
