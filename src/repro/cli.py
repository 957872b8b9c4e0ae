"""Command-line harness: regenerate any of the paper's figures.

Usage::

    python -m repro fig1
    python -m repro fig2
    python -m repro fig3 [--bundle-category CPBN]
    python -m repro fig4 [--bundles 3] [--cores 64]
    python -m repro fig5 [--epochs 8] [--categories CPBN BBPN]
    python -m repro convergence [--bundles 3]
    python -m repro lint [paths ...] [--format json] [--fail-on warning]

Every figure subcommand prints the figure's rows/series in plain text
(the same output the benchmarks archive under ``benchmarks/_results``).
``lint`` runs the :mod:`repro.qa` static domain linter and exits 1 when
findings at or above the ``--fail-on`` severity remain (see
``docs/QA.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .analysis import (
    fig1_data,
    fig2_data,
    fig3_data,
    format_series,
    format_table,
    run_analytic_sweep,
    run_simulation_experiment,
    summarize_simulation,
    summarize_sweep,
)
from .cmp import cmp_8core, cmp_64core
from .sim import SimulationConfig
from .workloads import generate_bundles

__all__ = ["build_parser", "main"]


def _cmd_fig1(_args) -> None:
    data = fig1_data()
    print("Figure 1 (left): PoA lower bound vs MUR (Theorem 1)")
    print(format_series("PoA", data["mur"], data["poa_bound"], max_points=21))
    print("\nFigure 1 (right): envy-freeness lower bound vs MBR (Theorem 2)")
    print(format_series("EF", data["mbr"], data["ef_bound"], max_points=21))


def _cmd_fig2(_args) -> None:
    data = fig2_data()
    print("Figure 2: normalized utility vs cache regions (max frequency)")
    for name, curves in data.items():
        print(format_series(f"{name} raw ", curves["regions"], curves["raw"], 16))
        print(format_series(f"{name} hull", curves["regions"], curves["hull"], 16))


def _cmd_fig3(args) -> None:
    bundle = None
    if args.bundle_category:
        bundle = generate_bundles(args.bundle_category, 8, count=1, seed=args.seed)[0]
    data = fig3_data(bundle=bundle)
    mechanisms = list(data["lambdas"].keys())
    rows = [
        [app] + [data["lambdas"][m][app] for m in mechanisms] for app in data["apps"]
    ]
    rows.append(["MUR"] + [data["summary"][m]["mur"] for m in mechanisms])
    rows.append(
        ["eff/OPT"] + [data["summary"][m]["efficiency_vs_opt"] for m in mechanisms]
    )
    print(
        format_table(
            ["app"] + mechanisms,
            rows,
            title="Figure 3: normalized lambda_i per application",
        )
    )


def _report_failures(failures) -> None:
    """Name every failed sweep cell on stderr."""
    for failure in failures:
        print(f"  FAILED {failure.bundle}/{failure.mechanism}", file=sys.stderr)


def _cmd_fig4(args) -> None:
    config = cmp_64core() if args.cores == 64 else cmp_8core()
    sweep = run_analytic_sweep(
        config=config,
        bundles_per_category=args.bundles,
        progress=lambda name: print(f"  {name}", file=sys.stderr),
        workers=args.workers,
    )
    _report_failures(sweep.failures)
    print(summarize_sweep(sweep))
    x = np.arange(len(sweep.scores), dtype=float)
    print("\nFigure 4a series (ordered by EqualShare efficiency):")
    for mech in sweep.mechanisms:
        print(format_series(f"  {mech:13s}", x, sweep.efficiency_series(mech)))
    print("\nFigure 4b series (envy-freeness):")
    for mech in sweep.mechanisms:
        print(format_series(f"  {mech:13s}", x, sweep.envy_freeness_series(mech)))


def _cmd_fig5(args) -> None:
    config = cmp_64core() if args.cores == 64 else cmp_8core()
    scores = run_simulation_experiment(
        config=config,
        categories=tuple(args.categories),
        sim_config=SimulationConfig(duration_ms=float(args.epochs), seed=args.seed),
        workers=args.workers,
    )
    _report_failures(scores.failures)
    print(summarize_simulation(scores))


def _cmd_suite(args) -> None:
    from .analysis import characterize_suite

    rows = [
        [r.name, r.suite, r.cls, r.cpi_exe, r.apki, r.footprint_mb,
         r.cache_sensitivity, r.power_sensitivity]
        for r in sorted(
            characterize_suite(workers=args.workers), key=lambda r: (r.cls, r.name)
        )
    ]
    print(
        format_table(
            ["app", "suite", "class", "CPI", "APKI", "footprint MB",
             "cache sens", "power sens"],
            rows,
            title="The 24-application suite (classes derived by profiling)",
        )
    )


def _cmd_validate(_args) -> None:
    from .analysis import (
        dram_contention_study,
        futility_convergence_study,
        umon_error_study,
    )

    umon = umon_error_study()
    print(
        f"UMON miss-curve error: suite mean |err| = "
        f"{float(np.mean([r.mean_abs_error for r in umon])):.4f}, "
        f"worst app max |err| = {max(r.max_abs_error for r in umon):.4f}"
    )
    epochs = futility_convergence_study()
    print(
        f"Futility Scaling: median {float(np.median(epochs)):.0f} epochs to 5% "
        f"occupancy error (max {max(epochs)})"
    )
    print("DRAM contention (utilization -> ns):")
    for u, lat in dram_contention_study():
        print(f"  {u:.2f} -> {lat:.1f}")


def _cmd_lint(args) -> int:
    from .qa import Linter, Severity, render_json, render_text

    report = Linter().lint_paths(args.paths)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code(fail_on=Severity.parse(args.fail_on))


def _cmd_convergence(args) -> None:
    from .core import BalancedBudget, EqualBudget, ReBudgetMechanism

    sweep = run_analytic_sweep(
        config=cmp_64core(),
        bundles_per_category=args.bundles,
        mechanisms_factory=lambda: [
            EqualBudget(),
            BalancedBudget(),
            ReBudgetMechanism(step=20),
            ReBudgetMechanism(step=40),
        ],
        workers=args.workers,
    )
    _report_failures(sweep.failures)
    rows = []
    for mech in sweep.mechanisms:
        stats = sweep.convergence_stats(mech)
        rows.append(
            [
                mech,
                stats["mean_iterations"],
                stats["max_iterations"],
                stats["fraction_within_3"],
                stats["converged_fraction"],
            ]
        )
    print(
        format_table(
            ["mechanism", "mean iters", "max iters", "frac <=3", "converged"],
            rows,
            title="Section 6.4: convergence statistics",
        )
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the ReBudget paper's figures."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="Theorem 1/2 bound curves").set_defaults(func=_cmd_fig1)
    sub.add_parser("fig2", help="mcf/vpr cache utility + Talus hull").set_defaults(
        func=_cmd_fig2
    )

    p3 = sub.add_parser("fig3", help="lambda profile of an 8-core bundle")
    p3.add_argument(
        "--bundle-category",
        default=None,
        help="generate a bundle of this category instead of the paper's BBPC",
    )
    p3.add_argument("--seed", type=int, default=9)
    p3.set_defaults(func=_cmd_fig3)

    workers_help = "worker processes for the sweep (1 = serial in-process)"

    p4 = sub.add_parser("fig4", help="analytic efficiency/fairness sweep")
    p4.add_argument("--bundles", type=int, default=3, help="bundles per category (paper: 40)")
    p4.add_argument("--cores", type=int, default=64, choices=(8, 64))
    p4.add_argument("--workers", type=int, default=1, help=workers_help)
    p4.set_defaults(func=_cmd_fig4)

    p5 = sub.add_parser("fig5", help="execution-driven simulation runs")
    p5.add_argument("--epochs", type=int, default=8, help="simulated milliseconds")
    p5.add_argument(
        "--categories", nargs="+", default=["CPBN", "BBPN"], metavar="CAT"
    )
    p5.add_argument("--cores", type=int, default=64, choices=(8, 64))
    p5.add_argument("--seed", type=int, default=2016)
    p5.add_argument("--workers", type=int, default=1, help=workers_help)
    p5.set_defaults(func=_cmd_fig5)

    pc = sub.add_parser("convergence", help="Section 6.4 iteration statistics")
    pc.add_argument("--bundles", type=int, default=3)
    pc.add_argument("--workers", type=int, default=1, help=workers_help)
    pc.set_defaults(func=_cmd_convergence)

    ps = sub.add_parser("suite", help="the 24-application workload table")
    ps.add_argument("--workers", type=int, default=1, help=workers_help)
    ps.set_defaults(func=_cmd_suite)
    sub.add_parser("validate", help="substrate-quality studies").set_defaults(
        func=_cmd_validate
    )

    pl = sub.add_parser("lint", help="run the repro.qa static domain linter")
    pl.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to lint (default: src)",
    )
    pl.add_argument("--format", choices=("text", "json"), default="text")
    pl.add_argument(
        "--fail-on",
        choices=("warning", "error"),
        default="error",
        help="lowest severity that makes the exit code nonzero",
    )
    pl.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args) or 0)


if __name__ == "__main__":
    raise SystemExit(main())
