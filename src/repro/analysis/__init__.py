"""Evaluation harness: per-figure experiment entry points and plain-text
reporting."""

from .characterization import (
    AppCharacterization,
    characterize_app,
    characterize_suite,
)
from .export import sweep_to_csv, write_csv
from .experiments import (
    BundleScore,
    SimulationScore,
    SimulationSweepResult,
    SweepFailure,
    SweepResult,
    fig1_data,
    fig2_data,
    fig3_data,
    run_analytic_sweep,
    run_simulation_experiment,
)
from .reporting import format_series, format_table, summarize_simulation, summarize_sweep
from .validation import (
    UMONErrorRow,
    dram_contention_study,
    futility_convergence_study,
    umon_error_study,
)

__all__ = [
    "AppCharacterization",
    "characterize_app",
    "characterize_suite",
    "fig1_data",
    "fig2_data",
    "fig3_data",
    "BundleScore",
    "SweepFailure",
    "SweepResult",
    "run_analytic_sweep",
    "SimulationScore",
    "SimulationSweepResult",
    "run_simulation_experiment",
    "format_table",
    "format_series",
    "summarize_sweep",
    "summarize_simulation",
    "sweep_to_csv",
    "write_csv",
    "UMONErrorRow",
    "umon_error_study",
    "futility_convergence_study",
    "dram_contention_study",
]
