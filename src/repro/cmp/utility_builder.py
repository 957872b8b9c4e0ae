"""Building market utilities from the multicore performance models.

The market operates on *extra* resources beyond each core's free
minimum (one 128 kB cache region, and the power to run at 800 MHz).
This module turns a :class:`~repro.cmp.core_model.CoreModel` — or a
runtime-monitored estimate of one — into a concave, continuous
2-resource utility over ``(extra cache bytes, extra power watts)``:

1. sample normalized performance on a (cache x power) grid;
2. convexify along the cache axis (Talus) and, if the sampled power
   response ever dips from concavity, along the power axis as well;
3. wrap the result in bilinear interpolation.

The convexification passes are iterated until the grid is concave along
both axes, mirroring the paper's "derive the convex hull of cache and
power" step in Section 6.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..utility.convex_hull import hull_columns
from ..utility.tabular import GridUtility2D
from .config import CMPConfig
from .core_model import CoreModel

__all__ = [
    "POWER_GRID_POINTS",
    "convexify_grid",
    "build_true_utility",
    "build_utility_from_miss_curve",
    "extra_capacity_for",
]

#: Grid resolution along the power axis (cache is sampled per region).
POWER_GRID_POINTS = 17

#: Upper bound on :func:`convexify_grid`'s hull passes.
_CONVEXIFY_MAX_PASSES = 6


def extra_capacity_for(core: CoreModel, config: CMPConfig) -> tuple:
    """Per-core caps on purchasable extras: cache bytes and power watts.

    Cache beyond 2 MB total (UMON's limit, footnote 3) and power beyond
    the 4 GHz draw yield no utility, so these are the natural caps.
    """
    cache_cap = float(config.umon_max_bytes - config.cache_region_bytes)
    power_cap = core.max_power_watts() - core.min_power_watts()
    return cache_cap, power_cap


def convexify_grid(
    cache_axis: np.ndarray, power_axis: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Hull the grid along both axes until concave along each.

    Each pass replaces every cache column (power fixed) and every power
    row (cache fixed) with its upper convex hull evaluated back on the
    grid.  Hulling can only raise values, and values are bounded by the
    global maximum, so the iteration converges; in practice two passes
    suffice (:func:`hull_columns` skips already strictly concave lines),
    and at most six run.
    """
    out = values.copy()
    for _ in range(_CONVEXIFY_MAX_PASSES):
        before = out.copy()
        hull_columns(cache_axis, out)
        hull_columns(power_axis, out.T)
        if np.allclose(before, out, rtol=0.0, atol=1e-12):
            break
    return out


def build_true_utility(
    core: CoreModel,
    config: CMPConfig,
    convexify: bool = True,
) -> GridUtility2D:
    """The "perfectly modeled" utility of phase-1 (Section 6).

    Evaluates the analytic core model exactly and (by default) applies
    the Talus-style convexification, producing the concave continuous
    utility over extras that the theory requires.
    """
    min_cache = float(config.cache_region_bytes)
    monitor_cap = float(config.umon_max_bytes)

    def memory_ns(cache_axis: np.ndarray) -> np.ndarray:
        return np.array(
            [
                core.app.misses_per_instruction(min(min_cache + c, monitor_cap))
                * core.memory_latency_ns
                for c in cache_axis
            ]
        )

    return _separable_grid(
        core, config, core.app.cpi_exe, memory_ns, core.alone_performance_gips, convexify
    )


def build_utility_from_miss_curve(
    core: CoreModel,
    config: CMPConfig,
    miss_curve: np.ndarray,
    cpi_estimate: Optional[float] = None,
) -> GridUtility2D:
    """Phase-2 utility from a *monitored* miss curve (UMON output).

    ``miss_curve[k]`` is the estimated miss fraction with ``k+1``
    regions.  The compute-phase CPI may also be an estimate; the power
    model and DRAM latency are shared with the true model (the paper
    estimates them with Isci-style counters, whose error is small
    relative to MRC sampling noise).  The grid is always convexified.
    """
    cpi = core.app.cpi_exe if cpi_estimate is None else cpi_estimate
    apki = core.app.apki
    latency = core.memory_latency_ns
    region = config.cache_region_bytes
    max_regions = miss_curve.size

    def memory_ns(cache_axis: np.ndarray) -> np.ndarray:
        region_indices = np.clip((region + cache_axis) / region, 1.0, float(max_regions))
        miss = np.interp(region_indices, np.arange(1, max_regions + 1), miss_curve)
        return apki / 1000.0 * miss * latency

    # Normalize by the *estimated* standalone performance (the paper's
    # monitors never see the true one).
    alone = 1.0 / (
        cpi / config.core.max_frequency_ghz
        + apki / 1000.0 * miss_curve[-1] * latency
    )
    return _separable_grid(core, config, cpi, memory_ns, alone, convexify=True)


def _separable_grid(
    core: CoreModel,
    config: CMPConfig,
    cpi: float,
    memory_ns: Callable[[np.ndarray], np.ndarray],
    alone: float,
    convexify: bool,
) -> GridUtility2D:
    """The steps both builders share, on the (extra cache x extra power) grid.

    The cache axis is one sample per region up to the cap; the power
    axis and its frequencies come from the power model's memoized
    :meth:`~repro.cmp.power.DVFSPowerModel.power_axis` (one elementwise
    bisection per activity).  Performance is separable into compute and
    memory time, ``perf[i, j] = 1 / (cpi / f_j + memory_ns(s)[i])``, so
    the surface is an outer combination of two 1-D arrays; it is then
    normalized by the standalone performance ``alone`` and, optionally,
    convexified.
    """
    cache_cap, _ = extra_capacity_for(core, config)
    region = config.cache_region_bytes
    num_regions = int(round(cache_cap / region))
    cache_axis = np.arange(num_regions + 1, dtype=float) * region
    power_axis, frequencies = core.power_model.power_axis(
        core.app.activity, POWER_GRID_POINTS
    )
    compute_ns = cpi / frequencies
    values = 1.0 / (compute_ns[None, :] + memory_ns(cache_axis)[:, None])
    values /= alone
    if convexify:
        values = convexify_grid(cache_axis, power_axis, values)
    return GridUtility2D(cache_axis, power_axis, values)
