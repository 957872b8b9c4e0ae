"""Utility-function framework: interfaces, parametric families, tabulated
curves, and upper-convex-hull (Talus-style) convexification."""

from .base import (
    EVAL_COUNTERS,
    EvalCounters,
    UtilityFunction,
    numeric_gradient_batch,
)
from .batch import BatchedUtilitySet
from .convex_hull import PiecewiseLinearConcave, upper_convex_hull
from .functions import (
    AdditiveUtility,
    CobbDouglasUtility,
    LinearUtility,
    LogUtility,
    PowerUtility,
    SaturatingUtility,
    ScaledUtility,
)
from .tabular import GridUtility2D, HullUtility1D, StackedGrids, TabularUtility1D

__all__ = [
    "UtilityFunction",
    "EvalCounters",
    "EVAL_COUNTERS",
    "numeric_gradient_batch",
    "BatchedUtilitySet",
    "StackedGrids",
    "upper_convex_hull",
    "PiecewiseLinearConcave",
    "LinearUtility",
    "LogUtility",
    "PowerUtility",
    "CobbDouglasUtility",
    "SaturatingUtility",
    "AdditiveUtility",
    "ScaledUtility",
    "TabularUtility1D",
    "HullUtility1D",
    "GridUtility2D",
]
