"""CSV export of experiment results (for external plotting).

The benchmarks print text; anyone wanting to re-plot Figure 4 in
their own tooling can export the raw sweep here.
"""

from __future__ import annotations

import csv
import io

__all__ = ["sweep_to_csv", "write_csv"]


def sweep_to_csv(sweep) -> str:
    """One row per (bundle, mechanism) of a phase-1 sweep, in Figure-4 order."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        [
            "order",
            "bundle",
            "category",
            "mechanism",
            "efficiency",
            "efficiency_vs_opt",
            "envy_freeness",
            "iterations",
            "converged",
            "mur",
            "mbr",
        ]
    )
    for order, score in enumerate(sweep.ordered_by_equalshare()):
        for mechanism, result in score.results.items():
            writer.writerow(
                [
                    order,
                    score.bundle,
                    score.category,
                    mechanism,
                    f"{result.efficiency:.6f}",
                    f"{score.efficiency_vs_opt(mechanism):.6f}",
                    f"{result.envy_freeness:.6f}",
                    result.iterations,
                    result.converged,
                    "" if result.mur is None else f"{result.mur:.6f}",
                    "" if result.mbr is None else f"{result.mbr:.6f}",
                ]
            )
    return out.getvalue()


def write_csv(text: str, path) -> None:
    """Write exported CSV text to ``path``."""
    with open(path, "w", newline="") as handle:
        handle.write(text)
