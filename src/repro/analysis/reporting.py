"""Plain-text reporting: the rows/series the paper's figures plot.

The benchmarks print through these helpers so that a run of the bench
suite regenerates, in text form, every figure and table of the paper's
evaluation section.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["format_table", "format_series", "summarize_sweep", "summarize_simulation"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """A minimal fixed-width ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[j]) for r in cells)) if cells else len(str(h))
        for j, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[float], ys: Sequence[float], max_points: int = 26
) -> str:
    """A compact ``x: y`` dump of one curve, subsampled if long."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size > max_points:
        idx = np.linspace(0, xs.size - 1, max_points).round().astype(int)
        xs, ys = xs[idx], ys[idx]
    pairs = " ".join(f"{x:g}:{y:.3f}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def summarize_sweep(sweep) -> str:
    """The Figure 4 summary: efficiency and fairness per mechanism."""
    rows: List[List[object]] = []
    for mech in sweep.mechanisms:
        eff = sweep.efficiency_series(mech)
        ef = sweep.envy_freeness_series(mech)
        rows.append(
            [
                mech,
                float(np.median(eff)),
                float(eff.min()),
                sweep.fraction_at_least(mech, 0.95),
                sweep.fraction_at_least(mech, 0.90),
                float(np.median(ef)),
                float(ef.min()),
            ]
        )
    return format_table(
        [
            "mechanism",
            "median eff/OPT",
            "min eff/OPT",
            "frac >=95%",
            "frac >=90%",
            "median EF",
            "worst EF",
        ],
        rows,
        title=f"Figure 4 summary over {len(sweep.scores)} bundles "
        "(normalized to MaxEfficiency)",
    )


def summarize_simulation(scores) -> str:
    """The Figure 5 summary: per-category measured results."""
    mechanisms = list(scores[0].efficiency.keys()) if scores else []
    rows: List[List[object]] = []
    for score in scores:
        for mech in mechanisms:
            rows.append(
                [
                    score.bundle,
                    mech,
                    score.efficiency_vs_opt(mech),
                    score.envy_freeness[mech],
                    score.mean_iterations[mech],
                ]
            )
    return format_table(
        ["bundle", "mechanism", "eff/OPT", "EF", "mean market iters"],
        rows,
        title="Figure 5 summary (execution-driven simulation)",
    )
