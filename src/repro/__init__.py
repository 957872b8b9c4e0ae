"""repro — a full reproduction of *ReBudget: Trading Off Efficiency vs.
Fairness in Market-Based Multicore Resource Allocation via Runtime Budget
Reassignment* (Wang & Martínez, ASPLOS 2016).

Subpackages
-----------
``repro.core``
    The proportional-share market, equilibrium search, MUR/MBR metrics,
    theoretical bounds (Theorems 1 & 2), the ReBudget loop, and all
    baseline mechanisms.
``repro.utility``
    Concave utility-function framework, including Talus-style upper
    convex hulls of sampled curves.
``repro.cmp``
    The multicore substrate: cache models (UMON shadow tags, Talus,
    Futility Scaling), DVFS power/thermal models, DRAM timing, an
    analytic core model, and the SPEC-like synthetic application suite.
``repro.workloads``
    C/P/B/N application classification and multiprogrammed bundle
    generation (6 categories x 40 bundles).
``repro.sim``
    The execution-driven epoch simulator with 1 ms re-allocation.
``repro.analysis``
    Experiment harness regenerating every figure and table in the
    paper's evaluation.
"""

from . import analysis, cmp, core, sim, utility, workloads
from .core import (
    AllocationProblem,
    EqualBudget,
    EqualShare,
    Market,
    MaxEfficiency,
    ReBudgetConfig,
    ReBudgetMechanism,
    ef_lower_bound,
    envy_freeness,
    find_equilibrium,
    market_budget_range,
    market_utility_range,
    poa_lower_bound,
    run_rebudget,
    standard_mechanism_suite,
)
from .exceptions import MarketConfigurationError, ReproError

__version__ = "1.0.0"

__all__ = [
    "core",
    "utility",
    "cmp",
    "workloads",
    "sim",
    "analysis",
    "Market",
    "find_equilibrium",
    "run_rebudget",
    "ReBudgetConfig",
    "ReBudgetMechanism",
    "AllocationProblem",
    "EqualShare",
    "EqualBudget",
    "MaxEfficiency",
    "standard_mechanism_suite",
    "envy_freeness",
    "market_utility_range",
    "market_budget_range",
    "poa_lower_bound",
    "ef_lower_bound",
    "ReproError",
    "MarketConfigurationError",
    "__version__",
]
