"""Paper-scale Figure 4 sweep: 240 bundles, 64 cores, all mechanisms.

Writes the summary to stdout and the per-(bundle, mechanism) data to
``benchmarks/_results/full_scale_fig4.csv``.  Equivalent to
``REPRO_FULL=1 pytest benchmarks/test_fig4_analytic_sweep.py`` but as a
plain script for long unattended runs.
"""

import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import run_analytic_sweep, summarize_sweep, sweep_to_csv, write_csv
from repro.core import standard_mechanism_suite


def main() -> None:
    t0 = time.time()
    done = [0]
    cells_per_bundle = len(standard_mechanism_suite())

    def progress(line: str) -> None:
        # One call per (bundle, mechanism) cell.
        done[0] += 1
        if done[0] % (20 * cells_per_bundle) == 0:
            bundles = done[0] // cells_per_bundle
            print(f"  {bundles}/240 bundles ({time.time() - t0:.0f}s)", file=sys.stderr)

    sweep = run_analytic_sweep(bundles_per_category=40, progress=progress)
    print(f"full 240-bundle sweep in {time.time() - t0:.0f}s")
    print(summarize_sweep(sweep))
    print()
    for mech in sweep.mechanisms:
        print(
            f"{mech:14s} frac>=95% {sweep.fraction_at_least(mech, 0.95):.3f} "
            f"frac>=90% {sweep.fraction_at_least(mech, 0.90):.3f} "
            f"worstEF {sweep.worst_envy_freeness(mech):.3f} "
            f"medianEF {sweep.median_envy_freeness(mech):.3f}"
        )
    print("theorem2 violations:", sweep.theorem2_violations())
    for mech in ("EqualBudget", "Balanced"):
        print(f"{mech} convergence:", sweep.convergence_stats(mech))

    results_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "_results"
    results_dir.mkdir(exist_ok=True)
    write_csv(sweep_to_csv(sweep), results_dir / "full_scale_fig4.csv")
    print(f"CSV written to {results_dir / 'full_scale_fig4.csv'}")


if __name__ == "__main__":
    main()
